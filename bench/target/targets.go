// Package target holds the benchmark's two loadgen.Target implementations —
// the binary wire plane through wire.Client and the v1 HTTP/JSON API — with
// the correctness oracle built in: every verdict a response carries is
// compared with the generator-known answer.
package target

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"adminrefine/bench/loadgen"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/wire"
)

// CallTimeout bounds one request on either plane, so a wedged daemon fails
// the run instead of hanging it.
const CallTimeout = 20 * time.Second

// classify maps the typed v1 error codes onto the load generator's failure
// classes.
func classify(err error) error {
	var e *api.Error
	if errors.As(err, &e) {
		switch e.Code {
		case api.CodeStaleGeneration:
			return fmt.Errorf("%v: %w", e, loadgen.ErrStale)
		case api.CodeOverloaded, api.CodeDeadline, api.CodeUnavailable:
			return fmt.Errorf("%v: %w", e, loadgen.ErrShed)
		}
	}
	return err
}

func wrong(op *loadgen.Op, what string, i int, got, want any) error {
	return fmt.Errorf("%s %s item %d: got %v, generator expects %v: %w",
		what, loadgen.TenantName(int(op.Tenant)), i, got, want, loadgen.ErrWrong)
}

// Wire drives a daemon over the binary wire protocol through
// wire.Client. Reads and submits use separate clients — a pipelined
// connection answers in order, so a submit waiting for its fsync would
// otherwise hold back every read queued behind it.
type Wire struct {
	Stream *loadgen.Stream
	Read   *wire.Client
	Write  *wire.Client
	// Sessions holds each tenant's check session id on the read node.
	Sessions []uint64

	pool sync.Pool
}

type wireCall struct {
	req  wire.Request
	resp wire.Response
}

// DialWire connects a read client to the read node's wire address and a
// write client to the primary's.
func DialWire(readAddr, writeAddr string, readConns, writeConns int) (read, write *wire.Client, err error) {
	read, err = wire.Dial(readAddr, wire.ClientOptions{Conns: readConns, CallTimeout: CallTimeout})
	if err != nil {
		return nil, nil, err
	}
	write, err = wire.Dial(writeAddr, wire.ClientOptions{Conns: writeConns, CallTimeout: CallTimeout})
	if err != nil {
		read.Close()
		return nil, nil, err
	}
	return read, write, nil
}

func (t *Wire) call() *wireCall {
	if c, ok := t.pool.Get().(*wireCall); ok {
		return c
	}
	return new(wireCall)
}

// CreateSession opens the tenant's check session over the wire.
func (t *Wire) CreateSession(tenant int) (uint64, error) {
	c := t.call()
	defer t.pool.Put(c)
	c.req.Reset()
	c.req.Op = wire.OpSessionCreate
	c.req.Tenant = loadgen.TenantName(tenant)
	c.req.User = loadgen.SessionUser()
	c.req.Roles = append(c.req.Roles[:0], loadgen.SessionRole())
	if err := t.Read.Do(&c.req, &c.resp); err != nil {
		return 0, err
	}
	return c.resp.Session, nil
}

// Do implements loadgen.Target.
func (t *Wire) Do(op *loadgen.Op, ryw bool, minGen uint64) (uint64, error) {
	c := t.call()
	defer t.pool.Put(c)
	req, resp := &c.req, &c.resp
	req.Reset()
	req.Tenant = loadgen.TenantName(int(op.Tenant))
	req.MinGen = minGen

	switch {
	case op.Kind == loadgen.Submit && !ryw:
		cmds, _ := t.Stream.Cmds(op)
		req.Op = wire.OpSubmit
		req.Cmds = append(req.Cmds, cmds...)
		if err := t.Write.Do(req, resp); err != nil {
			return 0, classify(err)
		}
		if len(resp.Steps) != len(cmds) {
			return 0, fmt.Errorf("submit: %d results for %d commands", len(resp.Steps), len(cmds))
		}
		for i := range resp.Steps {
			if resp.Steps[i].Outcome != wire.OutcomeApplied {
				return 0, wrong(op, "submit", i, wire.OutcomeName(resp.Steps[i].Outcome), "applied")
			}
		}

	case op.Kind == loadgen.Check:
		probe, want := t.Stream.Probe(op)
		req.Op = wire.OpCheck
		req.Session = t.Sessions[op.Tenant]
		req.Checks = append(req.Checks, wire.Check{Action: probe.Action, Object: probe.Object})
		if err := t.Read.Do(req, resp); err != nil {
			return 0, classify(err)
		}
		if len(resp.Allowed) != 1 {
			return 0, fmt.Errorf("check: %d results for 1 probe", len(resp.Allowed))
		}
		if resp.Allowed[0] != want {
			return 0, wrong(op, "check", 0, resp.Allowed[0], want)
		}

	default:
		cmds, want := t.Stream.Cmds(op)
		if ryw {
			cmds, want = t.Stream.RYW(op)
		}
		req.Op = wire.OpAuthorize
		req.Cmds = append(req.Cmds, cmds...)
		if err := t.Read.Do(req, resp); err != nil {
			return 0, classify(err)
		}
		if len(resp.Authz) != len(cmds) {
			return 0, fmt.Errorf("authorize: %d results for %d commands", len(resp.Authz), len(cmds))
		}
		for i := range resp.Authz {
			if resp.Authz[i].Allowed != want[i] {
				return 0, wrong(op, "authorize", i, resp.Authz[i].Allowed, want[i])
			}
		}
	}
	return resp.Generation, nil
}

// The JSON bodies of the v1 HTTP API, as documented in the README: the
// benchmark states them itself rather than importing the server's types, so
// it exercises the published contract.
type (
	jsonVertex struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	jsonCommand struct {
		Actor string     `json:"actor"`
		Op    string     `json:"op"`
		From  jsonVertex `json:"from"`
		To    jsonVertex `json:"to"`
	}
	jsonBatch struct {
		Commands      []jsonCommand `json:"commands"`
		MinGeneration uint64        `json:"min_generation,omitempty"`
	}
	jsonProbe struct {
		Action string `json:"action"`
		Object string `json:"object"`
	}
	jsonCheck struct {
		Session       uint64      `json:"session"`
		Checks        []jsonProbe `json:"checks"`
		MinGeneration uint64      `json:"min_generation,omitempty"`
	}
	jsonSession struct {
		User     string   `json:"user"`
		Activate []string `json:"activate"`
	}
	jsonVerdict struct {
		Allowed bool   `json:"allowed"`
		Outcome string `json:"outcome"`
		Session uint64 `json:"session"`
	}
	jsonReply struct {
		Results    json.RawMessage `json:"results"`
		Generation uint64          `json:"generation"`
	}
)

// JSONBatch is the body of an authorize or submit call.
func JSONBatch(cmds []command.Command, minGen uint64) any {
	return jsonBatch{Commands: encodeCommands(cmds), MinGeneration: minGen}
}

// JSONCheck is the body of a one-probe check call.
func JSONCheck(session uint64, probe loadgen.Probe, minGen uint64) any {
	return jsonCheck{Session: session, Checks: []jsonProbe{{probe.Action, probe.Object}}, MinGeneration: minGen}
}

func encodeCommands(cmds []command.Command) []jsonCommand {
	out := make([]jsonCommand, len(cmds))
	for i, c := range cmds {
		from, to := c.From.(model.Entity), c.To.(model.Entity)
		out[i] = jsonCommand{
			Actor: c.Actor, Op: c.Op.String(),
			From: jsonVertex{Kind: from.Kind.String(), Name: from.Name},
			To:   jsonVertex{Kind: to.Kind.String(), Name: to.Name},
		}
	}
	return out
}

// HTTP drives daemons over the v1 HTTP/JSON API: reads, RYW reads and
// sessions go to ReadBase (the follower), submits to WriteBase (the primary).
type HTTP struct {
	Stream    *loadgen.Stream
	ReadBase  string
	WriteBase string
	Client    *http.Client
	Sessions  []uint64
}

// NewHTTPClient returns a keep-alive client holding up to conns idle
// connections per node.
func NewHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   CallTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns},
	}
}

// Post sends body as JSON; a 200 decodes into reply (when non-nil), anything
// else becomes the v1 envelope's typed error.
func Post(client *http.Client, method, url string, body any, reply *jsonReply) error {
	var rd io.Reader
	switch b := body.(type) {
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return classify(api.Decode(resp.StatusCode, raw))
	}
	if reply != nil {
		if err := json.Unmarshal(raw, reply); err != nil {
			return fmt.Errorf("%s: decode: %w", url, err)
		}
	}
	return nil
}

// TenantURL is the v1 URL of one tenant's endpoint on a node.
func TenantURL(base string, tenant int, verb string) string {
	return base + "/v1/tenants/" + loadgen.TenantName(tenant) + "/" + verb
}

// CreateSession opens the tenant's check session on the read node. minGen
// makes a follower replicate the tenant before validating the activation.
func (t *HTTP) CreateSession(tenant int) (uint64, error) {
	var reply jsonReply
	body := jsonSession{User: loadgen.SessionUser(), Activate: []string{loadgen.SessionRole()}}
	if err := Post(t.Client, http.MethodPost, TenantURL(t.ReadBase, tenant, "sessions"), body, &reply); err != nil {
		return 0, err
	}
	var v jsonVerdict
	if err := json.Unmarshal(reply.Results, &v); err != nil {
		return 0, err
	}
	return v.Session, nil
}

// Do implements loadgen.Target.
func (t *HTTP) Do(op *loadgen.Op, ryw bool, minGen uint64) (uint64, error) {
	var reply jsonReply
	var verdicts []jsonVerdict
	tenant := int(op.Tenant)
	switch {
	case op.Kind == loadgen.Submit && !ryw:
		cmds, _ := t.Stream.Cmds(op)
		if err := Post(t.Client, http.MethodPost, TenantURL(t.WriteBase, tenant, "submit"), JSONBatch(cmds, 0), &reply); err != nil {
			return 0, err
		}
		if err := json.Unmarshal(reply.Results, &verdicts); err != nil || len(verdicts) != len(cmds) {
			return 0, fmt.Errorf("submit: bad results %q", reply.Results)
		}
		for i, v := range verdicts {
			if v.Outcome != "applied" {
				return 0, wrong(op, "submit", i, v.Outcome, "applied")
			}
		}

	case op.Kind == loadgen.Check:
		probe, want := t.Stream.Probe(op)
		if err := Post(t.Client, http.MethodPost, TenantURL(t.ReadBase, tenant, "check"), JSONCheck(t.Sessions[tenant], probe, minGen), &reply); err != nil {
			return 0, err
		}
		if err := json.Unmarshal(reply.Results, &verdicts); err != nil || len(verdicts) != 1 {
			return 0, fmt.Errorf("check: bad results %q", reply.Results)
		}
		if verdicts[0].Allowed != want {
			return 0, wrong(op, "check", 0, verdicts[0].Allowed, want)
		}

	default:
		cmds, want := t.Stream.Cmds(op)
		if ryw {
			cmds, want = t.Stream.RYW(op)
		}
		if err := Post(t.Client, http.MethodPost, TenantURL(t.ReadBase, tenant, "authorize"), JSONBatch(cmds, minGen), &reply); err != nil {
			return 0, err
		}
		if err := json.Unmarshal(reply.Results, &verdicts); err != nil || len(verdicts) != len(cmds) {
			return 0, fmt.Errorf("authorize: bad results %q", reply.Results)
		}
		for i, v := range verdicts {
			if v.Allowed != want[i] {
				return 0, wrong(op, "authorize", i, v.Allowed, want[i])
			}
		}
	}
	return reply.Generation, nil
}
