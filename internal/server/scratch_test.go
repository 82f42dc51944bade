package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
	"adminrefine/internal/service"
	"adminrefine/internal/tenant"
)

// scratchCoverage maps every batchScratch field to how reset() neutralises
// it between requests. The reflection loop below fails on any field missing
// from this table (or any stale entry), so adding per-request state to the
// scratch without deciding its reset story does not compile into a silent
// cross-request leak — PR 4 shipped exactly that bug when MinGeneration
// joined BatchRequest without a scalar reset.
// The cluster control plane (migrate/adopt/nodes/placement push) decodes
// into stack-local structs on purpose: those handlers run a few times per
// topology change, not per request, so they do not earn a pooled slot — and
// every pooled slot is one more reset obligation this table must carry.
var scratchCoverage = map[string]string{
	"req":      "decode target: struct rebuilt and element storage cleared by reset()",
	"checkReq": "decode target: struct rebuilt and element storage cleared by reset()",
	"adminReq": "decode target: scalar struct zeroed by reset() (a leaked IfEpoch would veto a promotion; a leaked Upstream would redirect a repoint)",
	"reqs":     "the core request the decoders fill: every scalar zeroed and every slice emptied by service.Request.Reset()",
	"resps":    "the core's answer: zeroed by reset() and rebuilt from scratch by service.Core.Do",
	"core":     "engine result buffers behind resps: emptied by service.Core.Do on entry (its check-privilege cache is request-independent)",
	"authOut":  "append-from-zero result buffer: length zeroed by reset()",
	"subOut":   "append-from-zero result buffer: length zeroed by reset()",
	"checkOut": "append-from-zero result buffer: length zeroed by reset()",
}

// TestScratchFieldsZeroedBetweenRequests is the table-driven, reflection
// half of the scratch-reuse contract: every field must be enumerated in
// scratchCoverage, and a poisoned scratch must come out of reset() with no
// request-visible state.
func TestScratchFieldsZeroedBetweenRequests(t *testing.T) {
	typ := reflect.TypeOf(batchScratch{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if _, ok := scratchCoverage[name]; !ok {
			t.Errorf("batchScratch field %q has no reset coverage: handle it in reset() and document it in scratchCoverage", name)
		}
	}
	for name := range scratchCoverage {
		if !fields[name] {
			t.Errorf("scratchCoverage lists %q, which batchScratch no longer has", name)
		}
	}

	// Poison every field with a previous request's data…
	sc := &batchScratch{
		req: BatchRequest{
			Commands:      []WireCommand{{Actor: "leak", Op: "grant"}, {Actor: "leak2"}},
			MinGeneration: 99,
		},
		checkReq: CheckRequest{
			Session:       7,
			Checks:        []CheckQuery{{Action: "read", Object: "t1"}},
			MinGeneration: 42,
		},
		adminReq: AdminRequest{Upstream: "http://leak:1", IfEpoch: 3},
		reqs: [1]service.Request{{
			Op: service.OpCheck, MinGen: 99, DeadlineMS: 5, Tenant: "leak", Session: 7, User: "leak",
			Cmds: make([]command.Command, 3), Checks: []service.Check{{Action: "read", Object: "t1"}},
			Roles: []string{"leak"}, Activate: []string{"leak"}, Deactivate: []string{"leak"},
		}},
		resps:    [1]service.Response{{Err: &api.Error{Code: api.CodeInternal}, Generation: 9, Allowed: []bool{true}, Session: 7}},
		authOut:  []AuthorizeResult{{Allowed: true, Justification: "leak"}},
		subOut:   []SubmitResult{{Outcome: "applied"}},
		checkOut: []CheckResult{{Allowed: true}},
	}
	sc.reset()

	// …and verify the decode targets are deeply zero, including the element
	// storage json merging would otherwise resurrect.
	if sc.req.MinGeneration != 0 || len(sc.req.Commands) != 0 {
		t.Fatalf("req not reset: %+v", sc.req)
	}
	for i, wc := range sc.req.Commands[:cap(sc.req.Commands)] {
		if !reflect.DeepEqual(wc, WireCommand{}) {
			t.Fatalf("req.Commands backing element %d survived reset: %+v", i, wc)
		}
	}
	if sc.checkReq.Session != 0 || sc.checkReq.MinGeneration != 0 || len(sc.checkReq.Checks) != 0 {
		t.Fatalf("checkReq not reset: %+v", sc.checkReq)
	}
	if sc.adminReq != (AdminRequest{}) {
		t.Fatalf("adminReq not reset: %+v", sc.adminReq)
	}
	for i, q := range sc.checkReq.Checks[:cap(sc.checkReq.Checks)] {
		if q != (CheckQuery{}) {
			t.Fatalf("checkReq.Checks backing element %d survived reset: %+v", i, q)
		}
	}
	if req := &sc.reqs[0]; !reflect.DeepEqual(*req, service.Request{Cmds: req.Cmds[:0], Checks: req.Checks[:0],
		Roles: req.Roles[:0], Activate: req.Activate[:0], Deactivate: req.Deactivate[:0]}) {
		t.Fatalf("core request not reset: %+v", *req)
	}
	if !reflect.DeepEqual(sc.resps[0], service.Response{}) {
		t.Fatalf("core response not reset: %+v", sc.resps[0])
	}
	for name, n := range map[string]int{
		"authOut": len(sc.authOut), "subOut": len(sc.subOut), "checkOut": len(sc.checkOut),
	} {
		if n != 0 {
			t.Fatalf("result buffer %s has visible length %d after reset", name, n)
		}
	}
}

// TestCheckScratchDoesNotLeakMinGeneration is the end-to-end half for the
// new check scratch: a check request carrying min_generation must not
// infect a later request on the same pooled scratch that omits it.
func TestCheckScratchDoesNotLeakMinGeneration(t *testing.T) {
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	// A tiny wait bound keeps the deliberate 409 passes fast.
	ts := httptest.NewServer(NewWithConfig(Config{Registry: reg, MinGenWait: time.Millisecond}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	if code := putPolicy(t, ts.URL, "acme", policy.Figure1()); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}
	var env sessionEnvelope
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/sessions",
		map[string]any{"user": policy.UserDiana, "activate": []string{policy.RoleNurse}}, &env); code != http.StatusOK {
		t.Fatalf("create session status %d", code)
	}
	sess := env.Results
	checks := []map[string]any{{"action": "read", "object": "t1"}}
	// Unreachable min_generation: every pass must 409, stamping the pooled
	// scratches with MinGeneration=7.
	for i := 0; i < 8; i++ {
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/check",
			map[string]any{"session": sess.Session, "checks": checks, "min_generation": 7}, nil)
		if code != http.StatusConflict {
			t.Fatalf("stale check pass %d: status %d, want 409", i, code)
		}
	}
	// The same request without the token must serve immediately — a leaked
	// MinGeneration would 409 here.
	for i := 0; i < 8; i++ {
		var out struct {
			Results []CheckResult `json:"results"`
		}
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/check",
			map[string]any{"session": sess.Session, "checks": checks}, &out)
		if code != http.StatusOK || len(out.Results) != 1 || !out.Results[0].Allowed {
			t.Fatalf("tokenless check pass %d: status %d %+v (stale scratch leaked)", i, code, out.Results)
		}
	}
}
