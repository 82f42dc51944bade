package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/server"
	"adminrefine/internal/workload"
)

// harnessClient is the one HTTP client every httpTarget shares: a bounded
// timeout, so a wedged daemon fails the op instead of hanging the test until
// go test's panic, and an idle pool wide enough that the open-loop harness's
// workers (at most 8 here) reuse connections instead of redialing per op.
var harnessClient = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 32},
}

// httpTarget drives a live rbacd over its real HTTP API — the socket-level
// workload.Target of the daemon load tests. Reads (authorize, check) go to
// ReadBase, writes (submit) to WriteBase, so a primary+follower pair can be
// loaded with reads on the replica and writes on the primary, the deployment
// shape. Session checks lazily create one session per tenant against the
// read node (sessions are node-local) and cache it: user "u0" activating
// workload.ChurnPolicy's chain-bottom role "c0000", which holds the
// fixture's read permission.
type httpTarget struct {
	// ReadBase and WriteBase are server base URLs (no trailing slash), e.g.
	// "http://127.0.0.1:8080". WriteBase defaults to ReadBase.
	ReadBase  string
	WriteBase string

	sessions sync.Map // tenant name -> uint64 session id

	// Shed accounting: how many requests the server refused with 429 (reads
	// at capacity) and 503 (writes at capacity, expired deadlines, open
	// breaker). Both surface as workload.ErrShed to the harness.
	shed429 atomic.Uint64
	shed503 atomic.Uint64
}

// ShedCounts reports the 429s and 503s this target has absorbed — the
// client-side half of the overload accounting, reconciled against the
// server's /stats shed counters by TestOverloadDegradationEndToEnd.
func (t *httpTarget) ShedCounts() (s429, s503 uint64) {
	return t.shed429.Load(), t.shed503.Load()
}

func (t *httpTarget) writeBase() string {
	if t.WriteBase != "" {
		return t.WriteBase
	}
	return t.ReadBase
}

// batchReply mirrors the server's batch response envelope for authorize,
// submit and check.
type batchReply struct {
	Results    json.RawMessage `json:"results"`
	Generation uint64          `json:"generation"`
	Error      *api.Error      `json:"error,omitempty"`
}

// post sends body as JSON and returns the raw 200 response. Non-2xx bodies
// decode through the unified envelope (api.Decode) and dispatch on the typed
// code: stale_generation becomes workload.ErrStale, the overload codes
// (overloaded, deadline, breaker-open unavailable) become workload.ErrShed,
// everything else surfaces as the decoded *api.Error.
func (t *httpTarget) post(url string, body any) ([]byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := harnessClient.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return raw, nil
	}
	e := api.Decode(resp.StatusCode, raw)
	switch {
	case e.Code == api.CodeStaleGeneration || resp.StatusCode == http.StatusConflict:
		return nil, workload.ErrStale
	case resp.StatusCode == http.StatusTooManyRequests:
		t.shed429.Add(1)
		return nil, fmt.Errorf("%s: 429 %s: %w", url, e.Code, workload.ErrShed)
	case resp.StatusCode == http.StatusServiceUnavailable && e.RetryAfter > 0:
		// A 503 carrying retry_after is the overload contract (admission,
		// deadline or breaker shed); a bare 503 stays a hard error.
		t.shed503.Add(1)
		return nil, fmt.Errorf("%s: 503 %s: %w", url, e.Code, workload.ErrShed)
	default:
		return nil, fmt.Errorf("%s: %d: %w", url, resp.StatusCode, e)
	}
}

// postBatch posts and decodes the server's batch envelope.
func (t *httpTarget) postBatch(url string, body any) (*batchReply, error) {
	raw, err := t.post(url, body)
	if err != nil {
		return nil, err
	}
	var reply batchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", url, err)
	}
	return &reply, nil
}

// session returns the tenant's cached check session, creating it on first
// use. Creation carries minGen so a follower target has replicated the
// tenant before the session activates roles against it.
func (t *httpTarget) session(tenantName string, minGen uint64) (uint64, error) {
	if v, ok := t.sessions.Load(tenantName); ok {
		return v.(uint64), nil
	}
	raw, err := t.post(
		t.ReadBase+"/v1/tenants/"+tenantName+"/sessions",
		server.SessionRequest{User: "u0", Activate: []string{"c0000"}, MinGeneration: minGen},
	)
	if err != nil {
		return 0, fmt.Errorf("create session for %s: %w", tenantName, err)
	}
	var reply struct {
		Results server.SessionResponse `json:"results"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return 0, fmt.Errorf("create session for %s: %w", tenantName, err)
	}
	actual, _ := t.sessions.LoadOrStore(tenantName, reply.Results.Session)
	return actual.(uint64), nil
}

// Do implements workload.Target over the HTTP API.
func (t *httpTarget) Do(op *workload.ServeOp, minGen uint64) (uint64, error) {
	switch op.Kind {
	case workload.OpSubmit:
		req := server.BatchRequest{Commands: make([]server.WireCommand, len(op.Cmds))}
		for i, c := range op.Cmds {
			wc, err := server.EncodeCommand(c)
			if err != nil {
				return 0, err
			}
			req.Commands[i] = wc
		}
		reply, err := t.postBatch(t.writeBase()+"/v1/tenants/"+op.Tenant+"/submit", req)
		if err != nil {
			return 0, err
		}
		var results []server.SubmitResult
		if err := json.Unmarshal(reply.Results, &results); err != nil {
			return 0, err
		}
		for i, res := range results {
			if res.Outcome != "applied" {
				return 0, fmt.Errorf("submit %s cmd %d: outcome %s", op.Tenant, i, res.Outcome)
			}
		}
		return reply.Generation, nil

	case workload.OpAuthorize:
		req := server.BatchRequest{
			Commands:      make([]server.WireCommand, len(op.Cmds)),
			MinGeneration: minGen,
		}
		for i, c := range op.Cmds {
			wc, err := server.EncodeCommand(c)
			if err != nil {
				return 0, err
			}
			req.Commands[i] = wc
		}
		reply, err := t.postBatch(t.ReadBase+"/v1/tenants/"+op.Tenant+"/authorize", req)
		if err != nil {
			return 0, err
		}
		var results []server.AuthorizeResult
		if err := json.Unmarshal(reply.Results, &results); err != nil {
			return 0, err
		}
		for i, res := range results {
			if !res.Allowed {
				return 0, fmt.Errorf("authorize %s cmd %d denied", op.Tenant, i)
			}
		}
		return reply.Generation, nil

	case workload.OpCheck:
		sess, err := t.session(op.Tenant, minGen)
		if err != nil {
			return 0, err
		}
		req := server.CheckRequest{
			Session:       sess,
			Checks:        make([]server.CheckQuery, len(op.Checks)),
			MinGeneration: minGen,
		}
		for i, c := range op.Checks {
			req.Checks[i] = server.CheckQuery{Action: c.Action, Object: c.Object}
		}
		reply, err := t.postBatch(t.ReadBase+"/v1/tenants/"+op.Tenant+"/check", req)
		if err != nil {
			return 0, err
		}
		var results []server.CheckResult
		if err := json.Unmarshal(reply.Results, &results); err != nil {
			return 0, err
		}
		for i, res := range results {
			if !res.Allowed {
				return 0, fmt.Errorf("check %s probe %d denied", op.Tenant, i)
			}
		}
		return reply.Generation, nil
	}
	return 0, fmt.Errorf("unknown op kind %v", op.Kind)
}
