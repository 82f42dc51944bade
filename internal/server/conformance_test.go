package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/service"
	"adminrefine/internal/tenant"
	wirep "adminrefine/internal/wire"
	"adminrefine/internal/workload"
)

// The conformance suite states the data-plane contract once, as a table of
// scenarios, and runs every row over both transports of one node — the HTTP
// client and wire.Client, both surfacing *api.Error. A row may differ by
// transport only where HTTP does something the binary plane cannot (a 307,
// a transparent forward); each such difference is asserted explicitly under
// `if kind == "http"`.

// reply is a transport-neutral view of one success answer.
type reply struct {
	generation, epoch uint64
	verdicts          []bool   // authorize, check
	outcomes          []string // submit
	session           uint64
	roles             []string
	// status and header are the raw HTTP answer (zero on the wire), set on
	// refusals too: the HTTP-only assertions read them.
	status int
	header http.Header
}

// transport is one plane's client. A typed refusal is an *api.Error.
type transport interface {
	do(req *service.Request) (reply, error)
}

type wireTransport struct{ c *wirep.Client }

func (w wireTransport) do(req *service.Request) (reply, error) {
	var resp wirep.Response
	if err := w.c.Do(req, &resp); err != nil {
		return reply{}, err
	}
	r := reply{generation: resp.Generation, epoch: resp.Epoch, verdicts: resp.Allowed, session: resp.Session, roles: resp.Roles}
	for _, a := range resp.Authz {
		r.verdicts = append(r.verdicts, a.Allowed)
	}
	for _, s := range resp.Steps {
		r.outcomes = append(r.outcomes, wirep.OutcomeName(s.Outcome))
	}
	return r, nil
}

// httpTransport speaks the v1 JSON API without following redirects; routedBy
// marks its requests as already forwarded once (the loop guard's input).
type httpTransport struct{ base, routedBy string }

func (h httpTransport) do(req *service.Request) (reply, error) {
	method, path, body := http.MethodPost, "/v1/tenants/"+req.Tenant, any(nil)
	sid := "/sessions/" + strconv.FormatUint(req.Session, 10)
	switch req.Op {
	case service.OpPing:
		method, path = http.MethodGet, "/healthz"
	case service.OpAuthorize, service.OpSubmit:
		batch := BatchRequest{MinGeneration: req.MinGen, Commands: []WireCommand{}}
		for _, c := range req.Cmds {
			wc, err := EncodeCommand(c)
			if err != nil {
				return reply{}, err
			}
			batch.Commands = append(batch.Commands, wc)
		}
		path, body = path+"/"+req.Op.String(), batch
	case service.OpCheck:
		cr := CheckRequest{Session: req.Session, MinGeneration: req.MinGen}
		for _, q := range req.Checks {
			cr.Checks = append(cr.Checks, CheckQuery(q))
		}
		path, body = path+"/check", cr
	case service.OpSessionCreate:
		path, body = path+"/sessions", SessionRequest{User: req.User, Activate: req.Roles, MinGeneration: req.MinGen}
	case service.OpSessionUpdate:
		path, body = path+sid, SessionRequest{Activate: req.Activate, Deactivate: req.Deactivate}
	case service.OpSessionDelete:
		method, path = http.MethodDelete, path+sid
	}
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return reply{}, err
		}
	}
	hreq, err := http.NewRequest(method, h.base+path, &buf)
	if err != nil {
		return reply{}, err
	}
	if req.DeadlineMS > 0 {
		hreq.Header.Set(HeaderRequestDeadline, strconv.FormatUint(uint64(req.DeadlineMS), 10))
	}
	if h.routedBy != "" {
		hreq.Header.Set(api.HeaderRoutedBy, h.routedBy)
	}
	resp, err := noRedirect().Do(hreq)
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, header: resp.Header}
	switch {
	case err != nil:
		return r, err
	case resp.StatusCode >= 400:
		return r, api.Decode(resp.StatusCode, raw)
	case resp.StatusCode >= 300:
		return r, fmt.Errorf("redirected to %s", resp.Header.Get("Location"))
	case len(raw) == 0:
		return r, nil // 204
	}
	var env struct {
		Results    json.RawMessage `json:"results"`
		Generation uint64          `json:"generation"`
		Epoch      uint64          `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return r, fmt.Errorf("decode %s: %w", raw, err)
	}
	r.generation, r.epoch = env.Generation, env.Epoch
	var items []struct {
		Allowed bool   `json:"allowed"`
		Outcome string `json:"outcome"`
	}
	var sess SessionResponse
	switch req.Op {
	case service.OpAuthorize, service.OpCheck, service.OpSubmit:
		err = json.Unmarshal(env.Results, &items)
	case service.OpSessionCreate, service.OpSessionUpdate:
		err = json.Unmarshal(env.Results, &sess)
	}
	for _, it := range items {
		r.verdicts, r.outcomes = append(r.verdicts, it.Allowed), append(r.outcomes, it.Outcome)
	}
	r.session, r.roles = sess.Session, sess.Roles
	return r, err
}

// planes is one node with both listeners over its one core.
type planes struct {
	srv  *Server
	reg  *tenant.Registry
	http *httptest.Server
	wire string
}

// churnRegistry bootstraps every tenant but "ghost" to the churn fixture:
// churnadmin is authorized for every ChurnGrant, u0 holds c0000 (whose chain
// bottom holds ("read","obj")), cu0000 is a plain member.
func churnRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg := tenant.New(tenant.Options{
		Dir:  t.TempDir(),
		Mode: engine.Refined,
		Bootstrap: func(name string) *policy.Policy {
			if name == "ghost" {
				return nil
			}
			return workload.ChurnPolicy(8, 8)
		},
	})
	t.Cleanup(func() { reg.Close() })
	return reg
}

func startPlanes(t *testing.T, cfg Config) *planes {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = churnRegistry(t)
	}
	p := &planes{srv: NewWithConfig(cfg), reg: cfg.Registry}
	p.http = httptest.NewServer(p.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.wire = ln.Addr().String()
	ws := wirep.NewServer(p.srv.WireConfig())
	go ws.Serve(ln)
	t.Cleanup(func() {
		ws.Close()
		p.http.Close()
		p.srv.Close()
	})
	return p
}

// dial opens a fresh client of the given kind. Every call is its own
// connection: pipelined requests on one wire connection drain sequentially
// and would never contend for an admission slot.
func (p *planes) dial(t *testing.T, kind string) transport {
	t.Helper()
	if kind == "http" {
		return httpTransport{base: p.http.URL}
	}
	c, err := wirep.Dial(p.wire, wirep.ClientOptions{Conns: 1, CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return wireTransport{c}
}

// replicaPlanes stands up a primary and a follower replicating from it.
func replicaPlanes(t *testing.T, folCfg Config) (primary, follower *planes) {
	t.Helper()
	primary = startPlanes(t, Config{})
	folCfg.Registry = tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { folCfg.Registry.Close() })
	folCfg.Follower = replication.NewFollower(folCfg.Registry, replication.FollowerOptions{
		Upstream: primary.http.URL,
		PollWait: 100 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
		Breaker:  folCfg.Breaker,
	})
	return primary, startPlanes(t, folCfg)
}

func grant(i int) []command.Command { return []command.Command{workload.ChurnGrant(i, 8, 8)} }

func authorize(tenantName string, minGen uint64, deadlineMS uint32) *service.Request {
	return &service.Request{Op: service.OpAuthorize, Tenant: tenantName, MinGen: minGen, DeadlineMS: deadlineMS, Cmds: grant(1)}
}

func submit(tenantName string, i int) *service.Request {
	return &service.Request{Op: service.OpSubmit, Tenant: tenantName, Cmds: grant(i)}
}

// wantCode asserts err is the typed refusal with the given code.
func wantCode(t *testing.T, what string, err error, code string) *api.Error {
	t.Helper()
	var e *api.Error
	if !errors.As(err, &e) || e.Code != code {
		t.Fatalf("%s: %v, want api code %q", what, err, code)
	}
	return e
}

// wantHTTP asserts the HTTP-only face of a refusal: its status, and
// Retry-After whenever the envelope carries a retry hint.
func wantHTTP(t *testing.T, kind, what string, r reply, e *api.Error, status int) {
	t.Helper()
	if kind != "http" {
		return
	}
	if r.status != status {
		t.Fatalf("%s: HTTP status %d, want %d", what, r.status, status)
	}
	if e != nil && e.RetryAfter > 0 && r.header.Get("Retry-After") == "" {
		t.Fatalf("%s: %d without Retry-After", what, r.status)
	}
}

var conformance = []struct {
	name string
	run  func(t *testing.T, kind string)
}{
	{"a generation token is served read-your-writes", func(t *testing.T, kind string) {
		tr := startPlanes(t, Config{}).dial(t, kind)
		w, err := tr.do(submit("t0", 0))
		if err != nil || len(w.outcomes) != 1 || w.outcomes[0] != "applied" || w.generation == 0 || w.epoch != 0 {
			t.Fatalf("submit: %+v %v", w, err)
		}
		r, err := tr.do(authorize("t0", w.generation, 0))
		if err != nil || len(r.verdicts) != 1 || !r.verdicts[0] || r.generation < w.generation {
			t.Fatalf("authorize at token %d: %+v %v", w.generation, r, err)
		}
	}},
	{"a token from the primary is honoured by a follower", func(t *testing.T, kind string) {
		primary, follower := replicaPlanes(t, Config{MinGenWait: 3 * time.Second})
		var w reply
		for i := 0; i < 2; i++ {
			var err error
			if w, err = primary.dial(t, kind).do(submit("acme", i)); err != nil {
				t.Fatal(err)
			}
		}
		// The follower waits for replication to catch up and never serves a
		// staler answer.
		r, err := follower.dial(t, kind).do(authorize("acme", w.generation, 0))
		if err != nil || w.generation != 2 || r.generation < w.generation || !r.verdicts[0] {
			t.Fatalf("follower read at token %d: %+v %v", w.generation, r, err)
		}
	}},
	{"an unreachable token is stale_generation echoing both generations", func(t *testing.T, kind string) {
		tr := startPlanes(t, Config{MinGenWait: 50 * time.Millisecond}).dial(t, kind)
		w, err := tr.do(submit("t0", 0))
		if err != nil {
			t.Fatal(err)
		}
		r, err := tr.do(authorize("t0", 1<<40, 0))
		e := wantCode(t, "unreachable token", err, api.CodeStaleGeneration)
		if e.MinGeneration != 1<<40 || e.Generation != w.generation {
			t.Fatalf("stale envelope %+v, want generation %d and min_generation %d", e, w.generation, uint64(1)<<40)
		}
		wantHTTP(t, kind, "stale", r, e, http.StatusConflict)
	}},
	{"a budget expiring inside the generation wait is deadline, not stale", func(t *testing.T, kind string) {
		// Cut by the client's budget, then by the server's: overload (or a
		// stalled replica), so the client retries instead of treating its
		// token as unreachable.
		for _, c := range []struct {
			cfg      Config
			deadline uint32
		}{
			{Config{MinGenWait: 5 * time.Second}, 100},
			{Config{MinGenWait: 5 * time.Second, MaxRequestTime: 100 * time.Millisecond}, 0},
		} {
			p := startPlanes(t, c.cfg)
			start := time.Now()
			r, err := p.dial(t, kind).do(authorize("t0", 1<<40, c.deadline))
			e := wantCode(t, "deadline-cut wait", err, api.CodeDeadline)
			if e.RetryAfter == 0 || time.Since(start) > 2*time.Second {
				t.Fatalf("deadline-cut wait took %v: %+v", time.Since(start), e)
			}
			wantHTTP(t, kind, "deadline-cut wait", r, e, http.StatusServiceUnavailable)
			if got := p.srv.overloadStats().ShedDeadline; got != 1 {
				t.Fatalf("shed_deadline %d, want 1", got)
			}
		}
	}},
	{"a saturated read class sheds overloaded while stats and ping answer", func(t *testing.T, kind string) {
		adm := admission.New(admission.Config{Read: admission.Limits{MaxInFlight: 1}})
		p := startPlanes(t, Config{Admission: adm, MinGenWait: 5 * time.Second})
		probe := p.dial(t, kind)
		// Warm the tenant first: a probe's lazy open must not be what takes
		// the single slot.
		if _, err := probe.do(authorize("t0", 0, 0)); err != nil {
			t.Fatal(err)
		}
		parked := make(chan error, 1)
		parker := p.dial(t, kind)
		go func() {
			_, err := parker.do(authorize("t0", 1<<40, 800))
			parked <- err
		}()
		// Probe only once the parker provably holds the slot.
		waitForCond(t, "parker in flight", func() bool { return adm.Stats().Read.InFlight == 1 })
		r, err := probe.do(authorize("t0", 0, 0))
		e := wantCode(t, "probe beside the parker", err, api.CodeOverloaded)
		if e.RetryAfter == 0 {
			t.Fatalf("shed envelope %+v carries no retry hint", e)
		}
		wantHTTP(t, kind, "shed read", r, e, http.StatusTooManyRequests)

		// Observability survives saturation: ping and /stats cross no gate,
		// and /stats accounts the shed plus the still-held slot.
		if _, err := probe.do(&service.Request{Op: service.OpPing}); err != nil {
			t.Fatalf("ping during saturation: %v", err)
		}
		var st statsResponse
		if code := doJSON(t, http.MethodGet, p.http.URL+"/v1/tenants/t0/stats", nil, &st); code != http.StatusOK {
			t.Fatalf("stats during saturation: %d", code)
		}
		if a := st.Overload.Admission; st.Overload.ShedRead != 1 || a == nil || a.Read.InFlight != 1 || a.Read.ShedOverload != 1 {
			t.Fatalf("overload block during saturation: %+v", st.Overload)
		}
		// The parker ends on its own budget, and its slot re-admits.
		wantCode(t, "parked read", <-parked, api.CodeDeadline)
		if _, err := probe.do(authorize("t0", 0, 0)); err != nil {
			t.Fatalf("read after release: %v", err)
		}
	}},
	{"a queued write past its deadline is deadline; past the queue cap, overloaded", func(t *testing.T, kind string) {
		adm := admission.New(admission.Config{Write: admission.Limits{MaxInFlight: 1, MaxQueue: 4}})
		p := startPlanes(t, Config{Admission: adm})
		release, err := adm.Acquire(context.Background(), admission.Write)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		// Never 429: the client must know the node could not take the write.
		req := submit("t0", 0)
		req.DeadlineMS = 50
		r, err := p.dial(t, kind).do(req)
		e := wantCode(t, "expired queued write", err, api.CodeDeadline)
		wantHTTP(t, kind, "expired queued write", r, e, http.StatusServiceUnavailable)
		if got := p.srv.overloadStats().ShedDeadline; got != 1 {
			t.Fatalf("shed_deadline %d, want 1", got)
		}
		for i := 0; i < 4; i++ {
			queued := p.dial(t, kind)
			go func() {
				req := submit("t0", 0)
				req.DeadlineMS = 2000
				queued.do(req)
			}()
		}
		waitForCond(t, "write queue full", func() bool { return adm.Stats().Write.Queued == 4 })
		r, err = p.dial(t, kind).do(submit("t0", 0))
		e = wantCode(t, "over-cap write", err, api.CodeOverloaded)
		wantHTTP(t, kind, "over-cap write", r, e, http.StatusServiceUnavailable)
		if st := adm.Stats(); st.Write.ShedOverload != 1 || p.srv.overloadStats().ShedWrite != 1 {
			t.Fatalf("write shed_overload %d, shed_write %d, want 1 and 1", st.Write.ShedOverload, p.srv.overloadStats().ShedWrite)
		}
	}},
	{"a follower points writes at its upstream", func(t *testing.T, kind string) {
		primary, follower := replicaPlanes(t, Config{})
		r, err := follower.dial(t, kind).do(submit("acme", 0))
		if kind == "wire" {
			// The binary plane cannot redirect: misrouted carries the upstream.
			if e := wantCode(t, "follower write", err, api.CodeMisrouted); e.Node != primary.http.URL {
				t.Fatalf("follower write names %q, want upstream %s", e.Node, primary.http.URL)
			}
			return
		}
		// HTTP says the same thing as a 307 (method and body survive it), for
		// the core's submit and the HTTP-only policy upload alike, without
		// reading a body; a redirect-following client writes through.
		if err == nil || r.status != http.StatusTemporaryRedirect || r.header.Get("Location") != primary.http.URL+"/v1/tenants/acme/submit" {
			t.Fatalf("follower submit: %d → %q (%v), want 307 to the upstream", r.status, r.header.Get("Location"), err)
		}
		put, _ := http.NewRequest(http.MethodPut, follower.http.URL+"/v1/tenants/acme/policy", nil)
		resp, err := noRedirect().Do(put)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != primary.http.URL+"/v1/tenants/acme/policy" {
			t.Fatalf("follower PUT policy: %d → %q", resp.StatusCode, resp.Header.Get("Location"))
		}
		var sub batchResponse
		if code := doJSON(t, http.MethodPost, follower.http.URL+"/v1/tenants/acme/submit", wire(t, grant(0)...), &sub); code != http.StatusOK || sub.Generation != 1 {
			t.Fatalf("submit through the follower: %d %+v", code, sub)
		}
	}},
	{"an open breaker fast-fails follower writes as unavailable", func(t *testing.T, kind string) {
		br := admission.NewBreaker(admission.BreakerOptions{Threshold: 3, Cooldown: time.Minute})
		_, follower := replicaPlanes(t, Config{Breaker: br})
		upstream := follower.srv.core.Follower().Upstream()
		for i := 0; i < 3; i++ {
			br.Failure() // trip it the way the pull loop would
		}
		// Instead of pointing the client at a node the follower knows is dead.
		r, err := follower.dial(t, kind).do(submit("acme", 0))
		e := wantCode(t, "write behind an open breaker", err, api.CodeUnavailable)
		if e.RetryAfter == 0 || e.Node != upstream {
			t.Fatalf("fast-fail envelope %+v, want a retry hint and node %s", e, upstream)
		}
		wantHTTP(t, kind, "breaker fast-fail", r, e, http.StatusServiceUnavailable)
		if got := follower.srv.overloadStats().BreakerFastFail; got != 1 {
			t.Fatalf("breaker_fast_fail %d, want 1", got)
		}
		// Repointing at a (nominally) new upstream resets the verdict: old
		// failures must not damn the successor.
		if err := follower.srv.Repoint("http://127.0.0.1:2", 0); err != nil || br.Open() {
			t.Fatalf("repoint: %v, breaker open %v", err, br.Open())
		}
	}},
	{"a fenced node refuses writes with its epoch and keeps serving reads", func(t *testing.T, kind string) {
		p := startPlanes(t, Config{Epoch: replication.NewEpoch(0, nil)})
		tr := p.dial(t, kind)
		if _, err := tr.do(submit("t0", 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.do(&service.Request{Op: service.OpSessionCreate, Tenant: "t0", User: "u0"}); err != nil {
			t.Fatal(err)
		}
		// A pull carrying epoch 5 deposes the node, and its sessions with it:
		// node-local state must not outlive the authority it was made under.
		pull, _ := http.NewRequest(http.MethodGet, p.http.URL+"/v1/replicate/t0/pull?after_seq=0", nil)
		pull.Header.Set(replication.HeaderEpoch, "5")
		resp, err := http.DefaultClient.Do(pull)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest || p.srv.Role() != "fenced" || p.srv.Epoch() != 5 {
			t.Fatalf("deposing pull: %d, role %s at epoch %d", resp.StatusCode, p.srv.Role(), p.srv.Epoch())
		}
		var health struct {
			Role            string
			Epoch, Sessions uint64
		}
		if doJSON(t, http.MethodGet, p.http.URL+"/healthz", nil, &health); health.Role != "fenced" || health.Epoch != 5 || health.Sessions != 0 {
			t.Fatalf("fenced healthz %+v, want fenced at epoch 5 with 0 sessions", health)
		}
		r, err := tr.do(submit("t0", 1))
		e := wantCode(t, "write on a fenced node", err, api.CodeFenced)
		if e.Epoch != 5 {
			t.Fatalf("fenced envelope carries epoch %d, want 5", e.Epoch)
		}
		wantHTTP(t, kind, "fenced write", r, e, http.StatusMisdirectedRequest)
		if kind == "http" && r.header.Get(replication.HeaderEpoch) != "5" {
			t.Fatalf("fenced 421 epoch header %q", r.header.Get(replication.HeaderEpoch))
		}
		if r, err := tr.do(authorize("t0", 0, 0)); err != nil || !r.verdicts[0] {
			t.Fatalf("read on a fenced node: %+v %v", r, err)
		}
		// Promotion un-fences above the deposing epoch; acks carry it.
		if epoch, err := p.srv.Promote(0); err != nil || epoch != 6 {
			t.Fatalf("promote: epoch %d, %v", epoch, err)
		}
		if r, err := tr.do(submit("t0", 1)); err != nil || r.epoch != 6 {
			t.Fatalf("write after re-promotion: %+v %v", r, err)
		}
	}},
	{"an unknown tenant is not_found and mints nothing; a bad name is bad_request", func(t *testing.T, kind string) {
		p := startPlanes(t, Config{})
		tr := p.dial(t, kind)
		for i := 0; i < 2; i++ {
			r, err := tr.do(authorize("ghost", 0, 0))
			wantHTTP(t, kind, "unknown tenant", r, wantCode(t, "unknown tenant", err, api.CodeNotFound), http.StatusNotFound)
		}
		_, err := tr.do(&service.Request{Op: service.OpSessionCreate, Tenant: "ghost", User: "u0"})
		wantCode(t, "session on an unknown tenant", err, api.CodeNotFound)
		if _, err := p.reg.Stats("ghost"); !tenant.IsNotFound(err) {
			t.Fatalf("reads minted the tenant: %v", err)
		}
		for _, req := range []*service.Request{authorize("bad..name", 0, 0), submit("bad..name", 0)} {
			r, err := tr.do(req)
			wantHTTP(t, kind, "bad name", r, wantCode(t, "bad name", err, api.CodeBadRequest), http.StatusBadRequest)
		}
		_, err = tr.do(&service.Request{Op: service.OpAuthorize, Tenant: "t0"})
		wantCode(t, "empty batch", err, api.CodeBadRequest)
	}},
	{"the session lifecycle", func(t *testing.T, kind string) {
		p := startPlanes(t, Config{})
		tr := p.dial(t, kind)
		do := func(req service.Request) (reply, error) { req.Tenant = "t0"; return tr.do(&req) }
		checks := []service.Check{{Action: "read", Object: "obj"}, {Action: "write", Object: "obj"}}

		s, err := do(service.Request{Op: service.OpSessionCreate, User: "u0", Roles: []string{"c0000"}})
		if err != nil || s.session == 0 || len(s.roles) != 1 || s.roles[0] != "c0000" {
			t.Fatalf("create: %+v %v", s, err)
		}
		r, err := do(service.Request{Op: service.OpCheck, Session: s.session, Checks: checks})
		if err != nil || len(r.verdicts) != 2 || !r.verdicts[0] || r.verdicts[1] {
			t.Fatalf("check: %+v %v", r, err)
		}
		// With the role dropped, the read check denies.
		r, err = do(service.Request{Op: service.OpSessionUpdate, Session: s.session, Deactivate: []string{"c0000"}})
		if err != nil || len(r.roles) != 0 {
			t.Fatalf("update: %+v %v", r, err)
		}
		r, err = do(service.Request{Op: service.OpCheck, Session: s.session, Checks: checks[:1]})
		if err != nil || len(r.verdicts) != 1 || r.verdicts[0] {
			t.Fatalf("check after drop: %+v %v", r, err)
		}
		// …and opens again once it is re-activated.
		r, err = do(service.Request{Op: service.OpSessionUpdate, Session: s.session, Activate: []string{"c0000"}})
		if err != nil || len(r.roles) != 1 {
			t.Fatalf("re-activate: %+v %v", r, err)
		}
		if r, err = do(service.Request{Op: service.OpCheck, Session: s.session, Checks: checks[:1]}); err != nil || !r.verdicts[0] {
			t.Fatalf("check after re-activate: %+v %v", r, err)
		}
		// /stats surfaces the one session table both planes share.
		var st statsResponse
		doJSON(t, http.MethodGet, p.http.URL+"/v1/tenants/t0/stats", nil, &st)
		if st.Sessions == nil || st.Sessions.Sessions != 1 || st.Sessions.Checks == 0 {
			t.Fatalf("stats sessions block %+v", st.Sessions)
		}
		// Deleting twice, and anything addressed at a deleted session, is an
		// addressing miss.
		del := service.Request{Op: service.OpSessionDelete, Session: s.session}
		if r, err = do(del); err != nil {
			t.Fatalf("delete: %v", err)
		}
		wantHTTP(t, kind, "delete", r, nil, http.StatusNoContent)
		for what, req := range map[string]service.Request{
			"double delete":           del,
			"check a deleted session": {Op: service.OpCheck, Session: s.session, Checks: checks},
			"update a deleted one":    {Op: service.OpSessionUpdate, Session: s.session, Activate: []string{"c0000"}},
		} {
			r, err := do(req)
			wantHTTP(t, kind, what, r, wantCode(t, what, err, api.CodeNotFound), http.StatusNotFound)
		}
		// Malformed at the semantic level, and a role the user does not hold.
		for what, c := range map[string]struct {
			req  service.Request
			code string
		}{
			"userless create":   {service.Request{Op: service.OpSessionCreate}, api.CodeBadRequest},
			"empty check batch": {service.Request{Op: service.OpCheck, Session: 1}, api.CodeBadRequest},
			"role not held":     {service.Request{Op: service.OpSessionCreate, User: "cu0000", Roles: []string{"churnadmins"}}, api.CodeForbidden},
		} {
			r, err := do(c.req)
			wantHTTP(t, kind, what, r, wantCode(t, what, err, c.code), statusFor(c.code, admission.Read))
		}
	}},
}

func TestConformance(t *testing.T) {
	for _, row := range conformance {
		for _, kind := range []string{"http", "wire"} {
			t.Run(row.name+"/"+kind, func(t *testing.T) { row.run(t, kind) })
		}
	}
}

// TestNonOwnerNeverAppliesLocally is the placement half of the contract on
// both planes: in a multi-primary cluster a node that does not own a tenant
// never executes its requests — not at first touch, not during a migration's
// fence window, not after the migration retired the local copy.
func TestNonOwnerNeverAppliesLocally(t *testing.T) {
	for _, kind := range []string{"http", "wire"} {
		t.Run(kind, func(t *testing.T) {
			nodes := newCluster(t, 2)
			m := nodes[0].table.Current()
			n1 := clusterPlanes(t, nodes[0])

			// First touch of a tenant n2 owns, at n1.
			foreign, own := ownedBy(t, m, "n2"), ownedBy(t, m, "n1")
			// Both are provisioned through n1: HTTP forwards the foreign one's
			// upload (an HTTP-only endpoint) to its owner.
			for _, name := range []string{own, foreign} {
				if code := putPolicy(t, nodes[0].ts.URL, name, workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
					t.Fatalf("provision %s through n1: %d", name, code)
				}
			}
			for _, req := range []*service.Request{submit(foreign, 0), authorize(foreign, 0, 0)} {
				r, err := n1.dial(t, kind).do(req)
				if kind == "http" {
					// HTTP turns the verdict into service: the write forwards
					// transparently, and so does the authorize (a POST).
					if err != nil || r.status != http.StatusOK {
						t.Fatalf("routed %v: %d %v", req.Op, r.status, err)
					}
					continue
				}
				e := wantCode(t, "non-owner "+req.Op.String(), err, api.CodeMisrouted)
				if e.Node != nodes[1].ts.URL {
					t.Fatalf("misrouted names %q, want owner %s", e.Node, nodes[1].ts.URL)
				}
			}
			// A body-less request redirects instead, and every HTTP response
			// is stamped with the answering node's placement version.
			get, _ := http.NewRequest(http.MethodGet, nodes[0].ts.URL+"/v1/tenants/"+foreign+"/audit", nil)
			resp, err := noRedirect().Do(get)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != nodes[1].ts.URL+"/v1/tenants/"+foreign+"/audit" ||
				resp.Header.Get(api.HeaderPlacementVersion) != strconv.FormatUint(m.Version, 10) {
				t.Fatalf("foreign GET: %d → %q, stamp %q", resp.StatusCode, resp.Header.Get("Location"), resp.Header.Get(api.HeaderPlacementVersion))
			}
			// Only once forwarded does HTTP answer the verdict itself — the loop
			// guard — with the placement version the frame has no field for.
			_, err = httpTransport{base: nodes[0].ts.URL, routedBy: "n2"}.do(submit(foreign, 1))
			if e := wantCode(t, "loop-guarded misroute", err, api.CodeMisrouted); e.Node != nodes[1].ts.URL || e.PlacementVersion != m.Version {
				t.Fatalf("misrouted envelope %+v", e)
			}
			if _, err := nodes[0].reg.Stats(foreign); !tenant.IsNotFound(err) {
				t.Fatalf("tenant materialised on the non-owner: %v", err)
			}

			// A tenant n1 owns: inside the fence window a write is fenced…
			w, err := n1.dial(t, kind).do(submit(own, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := nodes[0].reg.FenceWrites(own); err != nil {
				t.Fatal(err)
			}
			_, err = n1.dial(t, kind).do(submit(own, 1))
			if e := wantCode(t, "write inside the fence window", err, api.CodeFenced); e.RetryAfter == 0 {
				t.Fatalf("fenced envelope %+v carries no retry hint", e)
			}
			nodes[0].reg.UnfenceWrites(own)
			// …and once the migration retired the source copy, the old owner
			// answers misrouted (HTTP: forwards), never a local apply.
			var mig MigrateResponse
			if code := doJSON(t, http.MethodPost, nodes[0].ts.URL+"/v1/cluster/migrate",
				map[string]any{"tenant": own, "to": "n2"}, &mig); code != http.StatusOK || mig.Generation != w.generation {
				t.Fatalf("migrate: %d %+v", code, mig)
			}
			// (The flip gossips asynchronously; let the new owner hear of it.)
			waitForCond(t, "gossip to n2", func() bool { return nodes[1].srv.PlacementVersion() == mig.Version })
			r, err := n1.dial(t, kind).do(submit(own, 1))
			if kind == "wire" {
				if e := wantCode(t, "write at the old owner", err, api.CodeMisrouted); e.Node != nodes[1].ts.URL {
					t.Fatalf("misrouted names %q, want new owner %s", e.Node, nodes[1].ts.URL)
				}
			} else if err != nil || r.generation != w.generation+1 {
				t.Fatalf("forwarded write after migration: %+v %v", r, err)
			}
			st, err := nodes[0].reg.Stats(own)
			if err != nil || st.Generation != w.generation {
				t.Fatalf("old owner's fossil moved to generation %d (%v), want %d", st.Generation, err, w.generation)
			}
		})
	}
}

// clusterPlanes adds a binary listener to a cluster node.
func clusterPlanes(t *testing.T, n *clusterNode) *planes {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wirep.NewServer(n.srv.WireConfig())
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return &planes{srv: n.srv, reg: n.reg, http: n.ts, wire: ln.Addr().String()}
}

// TestHTTPOnlyEndpointsPassTheCoreGates saturates both admission classes and
// checks the endpoints that exist only on HTTP: explain and audit shed as
// reads, a policy upload as a write, a replication pull in its own class —
// they cross the core's gates, not a copy — while the control plane, /healthz
// and /stats cross no gate at all.
func TestHTTPOnlyEndpointsPassTheCoreGates(t *testing.T) {
	one := admission.Limits{MaxInFlight: 1}
	adm := admission.New(admission.Config{Read: one, Write: one, Replication: one})
	p := startPlanes(t, Config{Admission: adm})
	if _, err := p.dial(t, "http").do(authorize("t0", 0, 0)); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []admission.Class{admission.Read, admission.Write, admission.Replication} {
		release, err := adm.Acquire(context.Background(), cl)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	explain, err := json.Marshal(ExplainRequest{Command: wire(t, grant(1)...).Commands[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method, path string
		status       int
		body         string
	}{
		// Decoded before admission: only a well-formed explain reaches the gate.
		{http.MethodPost, "/v1/tenants/t0/explain", http.StatusTooManyRequests, string(explain)},
		{http.MethodGet, "/v1/tenants/t0/audit", http.StatusTooManyRequests, ""},
		{http.MethodPut, "/v1/tenants/t0/policy", http.StatusServiceUnavailable, ""},
		{http.MethodGet, "/v1/replicate/t0/pull?after_seq=0", http.StatusServiceUnavailable, ""},
		{http.MethodGet, "/v1/tenants/t0/stats", http.StatusOK, ""},
		{http.MethodGet, "/healthz", http.StatusOK, ""},
		{http.MethodPost, "/v1/cluster/promote", http.StatusOK, ""},
		// The pre-cluster aliases are gone: the envelope's not_found.
		{http.MethodPost, "/v1/promote", http.StatusNotFound, ""},
		{http.MethodPost, "/v1/repoint", http.StatusNotFound, ""},
	} {
		req, _ := http.NewRequest(c.method, p.http.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s under saturation: %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.status, raw)
		}
		want := map[int]string{http.StatusTooManyRequests: api.CodeOverloaded, http.StatusServiceUnavailable: api.CodeOverloaded, http.StatusNotFound: api.CodeNotFound}[c.status]
		if e := api.Decode(resp.StatusCode, raw); want != "" && (e.Code != want || e.Message == "") {
			t.Fatalf("%s %s: envelope %+v, want code %q", c.method, c.path, e, want)
		}
	}
	if o := p.srv.overloadStats(); o.ShedRead != 2 || o.ShedWrite != 2 {
		t.Fatalf("shed accounting %+v, want 2 reads and 2 writes (the upload, the pull)", o)
	}
}
