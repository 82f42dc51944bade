package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/session"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

func testCore(t *testing.T) *Core {
	t.Helper()
	reg := tenant.New(tenant.Options{
		Dir:       t.TempDir(),
		Mode:      engine.Refined,
		Bootstrap: func(string) *policy.Policy { return workload.ChurnPolicy(8, 8) },
	})
	t.Cleanup(func() { reg.Close() })
	return New(Config{Registry: reg})
}

// TestMergedRunEqualsUnmergedAnswers is the pipelining row of the contract:
// a drain whose adjacent authorize/submit runs merge into single engine
// passes answers exactly what the same requests answer one Do at a time —
// same verdicts, same outcomes, in order, each response carrying only its
// own slice of the shared result buffer.
func TestMergedRunEqualsUnmergedAnswers(t *testing.T) {
	drain := func() []Request {
		var reqs []Request
		batch := func(op Op, tenantName string, from, n int) {
			req := Request{Op: op, Tenant: tenantName}
			for i := 0; i < n; i++ {
				// Grants repeat across requests: the second submit of one is
				// a no-change outcome, wherever the merge boundaries fall.
				req.Cmds = append(req.Cmds, workload.ChurnGrant((from+i)%5, 8, 8))
			}
			reqs = append(reqs, req)
		}
		for i := 0; i < 4; i++ {
			batch(OpSubmit, "t0", i, 1+i%3)
		}
		for i := 0; i < 6; i++ {
			batch(OpAuthorize, "t0", i, 1+i%2)
		}
		reqs = append(reqs, Request{Op: OpPing}, Request{Op: OpAuthorize, Tenant: "t0"}) // a barrier and a bad_request
		batch(OpAuthorize, "t1", 0, 2)
		batch(OpSubmit, "t1", 0, 2)
		return reqs
	}
	type answer struct {
		code    string
		allowed []bool
		steps   []command.Outcome
	}
	digest := func(resps []Response) (out []answer) {
		for _, r := range resps {
			var a answer
			if r.Err != nil {
				a.code = r.Err.Code
			}
			for _, z := range r.Authz {
				a.allowed = append(a.allowed, z.OK)
			}
			for _, s := range r.Steps {
				a.steps = append(a.steps, s.Outcome)
			}
			out = append(out, a)
		}
		return out
	}

	merged, single := testCore(t), testCore(t)
	reqs := drain()
	resps := make([]Response, len(reqs))
	var sc Scratch
	merged.Do(context.Background(), reqs, resps, &sc)
	got := digest(resps)

	var want []answer
	for _, req := range drain() {
		var one [1]Response
		single.Do(context.Background(), []Request{req}, one[:], &Scratch{})
		want = append(want, digest(one[:])...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged drain diverged from one-at-a-time answers:\n merged %+v\n single %+v", got, want)
	}
	for i, r := range resps {
		if n := len(reqs[i].Cmds); r.Err == nil && len(r.Authz)+len(r.Steps) != n {
			t.Fatalf("response %d carries %d results for %d commands", i, len(r.Authz)+len(r.Steps), n)
		}
	}
}

// TestFailMapsEveryErrorOnce pins the one error → code table, and the shed
// counter each refusal lands in.
func TestFailMapsEveryErrorOnce(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("tenant x: %w", err) }
	cases := []struct {
		err               error
		cl                admission.Class
		code              string
		retry             bool
		read, write, dead uint64
	}{
		{wrap(tenant.ErrBadName), admission.Read, api.CodeBadRequest, false, 0, 0, 0},
		{wrap(tenant.ErrNotFound), admission.Read, api.CodeNotFound, false, 0, 0, 0},
		{wrap(session.ErrNoSession), admission.Read, api.CodeNotFound, false, 0, 0, 0},
		{wrap(tenant.ErrFenced), admission.Write, api.CodeFenced, true, 0, 0, 0},
		{wrap(admission.ErrDeadline), admission.Write, api.CodeDeadline, true, 0, 0, 1},
		{wrap(admission.ErrOverloaded), admission.Read, api.CodeOverloaded, true, 1, 0, 0},
		{wrap(admission.ErrOverloaded), admission.Write, api.CodeOverloaded, true, 0, 1, 0},
		{wrap(session.ErrTableFull), admission.Read, api.CodeOverloaded, true, 1, 0, 0},
		{denial(errors.New("role not held")), admission.Read, api.CodeForbidden, false, 0, 0, 0},
		{denial(wrap(session.ErrNoSession)), admission.Read, api.CodeNotFound, false, 0, 0, 0},
		{errors.New("disk on fire"), admission.Write, api.CodeInternal, false, 0, 0, 0},
	}
	for _, tc := range cases {
		c := testCore(t)
		e := c.Fail(tc.cl, tc.err)
		if e.Code != tc.code || (e.RetryAfter > 0) != tc.retry || e.Message == "" {
			t.Errorf("Fail(%v) = %+v, want code %q, retry hint %v", tc.err, e, tc.code, tc.retry)
		}
		if o := c.Overload(); o.ShedRead != tc.read || o.ShedWrite != tc.write || o.ShedDeadline != tc.dead {
			t.Errorf("Fail(%v) accounted %+v, want read %d write %d deadline %d", tc.err, o, tc.read, tc.write, tc.dead)
		}
	}
	for op := OpAuthorize; op <= OpPing; op++ {
		if want := map[bool]admission.Class{true: admission.Write, false: admission.Read}[op == OpSubmit]; op.Class() != want {
			t.Errorf("%v contends as %v, want %v", op, op.Class(), want)
		}
	}
}

// TestHTTPOnlyOpsPassTheGates: explain, audit and policy upload are ops of
// the one pipeline — each answers through the shape, role, generation and
// not-found gates the seven binary-plane ops answer through.
func TestHTTPOnlyOpsPassTheGates(t *testing.T) {
	newRegistry := func() *tenant.Registry {
		// No bootstrap: a tenant exists only once a policy upload made it.
		return tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	}
	newCore := func(cfg Config) *Core {
		if cfg.Registry == nil {
			cfg.Registry = newRegistry()
		}
		c := New(cfg)
		t.Cleanup(func() { c.Close(); cfg.Registry.Close() })
		return c
	}
	do := func(c *Core, req Request) Response {
		var resp [1]Response
		c.Do(context.Background(), []Request{req}, resp[:], &Scratch{})
		return resp[0]
	}
	want := func(what string, resp Response, code string) *api.Error {
		t.Helper()
		if resp.Err == nil || resp.Err.Code != code {
			t.Fatalf("%s: %+v, want code %q", what, resp.Err, code)
		}
		return resp.Err
	}
	cmd := workload.ChurnGrant(0, 8, 8)
	explain := Request{Op: OpExplain, Tenant: "t0", Cmds: []command.Command{cmd}}
	audit := Request{Op: OpAudit, Tenant: "t0", Limit: 10}
	install := Request{Op: OpInstallPolicy, Tenant: "t0", Policy: workload.ChurnPolicy(8, 8)}

	c := newCore(Config{MinGenWait: 10 * time.Millisecond})
	for _, req := range []Request{explain, audit} {
		want("unknown tenant "+req.Op.String(), do(c, req), api.CodeNotFound)
	}
	if _, err := c.reg.Stats("t0"); !tenant.IsNotFound(err) {
		t.Fatalf("reads minted the tenant: %v", err)
	}
	for what, req := range map[string]Request{
		"explain of no command":   {Op: OpExplain, Tenant: "t0"},
		"explain of two":          {Op: OpExplain, Tenant: "t0", Cmds: []command.Command{cmd, cmd}},
		"audit without a limit":   {Op: OpAudit, Tenant: "t0"},
		"upload without a policy": {Op: OpInstallPolicy, Tenant: "t0"},
	} {
		want(what, do(c, req), api.CodeBadRequest)
	}
	if r := do(c, install); r.Err != nil || r.Epoch != 0 {
		t.Fatalf("install: %+v", r)
	}
	if r := do(c, explain); r.Err != nil || r.Text == "" {
		t.Fatalf("explain: %+v", r)
	}
	if _, _, err := c.reg.SubmitBatch("t0", []command.Command{cmd}); err != nil {
		t.Fatal(err)
	}
	if r := do(c, audit); r.Err != nil || len(r.Records) != 1 || r.Total != 1 || r.Generation != 1 {
		t.Fatalf("audit: %+v", r)
	}
	want("install over history", do(c, install), api.CodeConflict)
	stale := explain
	stale.MinGen = 1 << 40
	if e := want("unreachable token", do(c, stale), api.CodeStaleGeneration); e.MinGeneration != 1<<40 || e.Generation != 1 {
		t.Fatalf("stale envelope %+v", e)
	}
	slow := newCore(Config{})
	if r := do(slow, install); r.Err != nil {
		t.Fatal(r.Err)
	}
	stale.DeadlineMS = 20
	want("budget inside the wait", do(slow, stale), api.CodeDeadline)

	// A fenced node refuses an upload with its epoch; a follower points it
	// at the upstream.
	c.fence(5)
	if e := want("upload on a fenced node", do(c, install), api.CodeFenced); e.Epoch != 5 {
		t.Fatalf("fenced envelope %+v", e)
	}
	reg := newRegistry()
	fol := newCore(Config{Registry: reg, Follower: replication.NewFollower(reg, replication.FollowerOptions{Upstream: "http://127.0.0.1:1"})})
	if e := want("upload on a follower", do(fol, install), api.CodeMisrouted); e.Node != "http://127.0.0.1:1" {
		t.Fatalf("misrouted envelope %+v", e)
	}
}
