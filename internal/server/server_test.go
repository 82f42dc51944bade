package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/parser"
	"adminrefine/internal/policy"
	"adminrefine/internal/tenant"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	ts := httptest.NewServer(New(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func putPolicy(t *testing.T, base, name string, p *policy.Policy) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/tenants/"+name+"/policy", strings.NewReader(parser.Print(p, nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func wire(t *testing.T, cmds ...command.Command) BatchRequest {
	t.Helper()
	var req BatchRequest
	for _, c := range cmds {
		wc, err := EncodeCommand(c)
		if err != nil {
			t.Fatal(err)
		}
		req.Commands = append(req.Commands, wc)
	}
	return req
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body %v", out)
	}
}

func TestProvisionSubmitAuthorizeExplainStats(t *testing.T) {
	ts := newTestServer(t)

	if code := putPolicy(t, ts.URL, "acme", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}
	// Second provision conflicts only after history; empty history allows
	// re-install, so drive a submit first.
	grant := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))

	var sub struct {
		Results []SubmitResult `json:"results"`
	}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit", wire(t, grant), &sub)
	if code != http.StatusOK || len(sub.Results) != 1 || sub.Results[0].Outcome != "applied" {
		t.Fatalf("submit: status %d results %+v", code, sub.Results)
	}

	if code := putPolicy(t, ts.URL, "acme", policy.Figure2()); code != http.StatusConflict {
		t.Fatalf("re-provision status %d, want 409", code)
	}

	// bob now reaches staff's privileges; authorize sees the submitted edge.
	var auth struct {
		Results []AuthorizeResult `json:"results"`
	}
	probe := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/authorize", wire(t, probe, probe), &auth)
	if code != http.StatusOK || len(auth.Results) != 2 {
		t.Fatalf("authorize: status %d results %+v", code, auth.Results)
	}
	if !auth.Results[0].Allowed || auth.Results[0].Justification == "" {
		t.Fatalf("authorize result %+v", auth.Results[0])
	}

	var exp struct {
		Explanation string `json:"explanation"`
	}
	wc, err := EncodeCommand(probe)
	if err != nil {
		t.Fatal(err)
	}
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/explain", ExplainRequest{Command: wc}, &exp)
	if code != http.StatusOK || !strings.Contains(exp.Explanation, "authorized") {
		t.Fatalf("explain: status %d %q", code, exp.Explanation)
	}

	var st tenant.Stats
	code = doJSON(t, http.MethodGet, ts.URL+"/v1/tenants/acme/stats", nil, &st)
	if code != http.StatusOK || st.Tenant != "acme" || st.Generation != 1 {
		t.Fatalf("stats: status %d %+v", code, st)
	}
}

func TestTenantIsolationOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	if code := putPolicy(t, ts.URL, "a", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put a: %d", code)
	}
	if code := putPolicy(t, ts.URL, "b", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put b: %d", code)
	}
	grant := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	var sub struct {
		Results []SubmitResult `json:"results"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/a/submit", wire(t, grant), &sub)

	var sa, sb tenant.Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/tenants/a/stats", nil, &sa)
	doJSON(t, http.MethodGet, ts.URL+"/v1/tenants/b/stats", nil, &sb)
	if sa.Generation != 1 || sb.Generation != 0 {
		t.Fatalf("generations a=%d b=%d, want 1, 0", sa.Generation, sb.Generation)
	}
}

func TestWireCommandRoundTrip(t *testing.T) {
	cmds := []command.Command{
		command.Grant("jane", model.User("bob"), model.Role("staff")),
		command.Revoke("alice", model.Role("a"), model.Role("b")),
		command.Grant("root", model.Role("hr"), model.Grant(model.User("bob"), model.Role("staff"))),
	}
	for _, c := range cmds {
		wc, err := EncodeCommand(c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(wc)
		if err != nil {
			t.Fatal(err)
		}
		var back WireCommand
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Command()
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != c.Key() {
			t.Fatalf("round trip changed command: %s -> %s", c, got)
		}
	}
}

func TestBatchAgainstOneSnapshot(t *testing.T) {
	// All decisions of one authorize batch are taken at the same generation
	// even while submits interleave: drive a large batch and concurrent
	// submits, then check the batch is internally consistent (both probes of
	// the same command agree).
	ts := newTestServer(t)
	if code := putPolicy(t, ts.URL, "snap", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put: %d", code)
	}
	probe := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	req := wire(t, probe)
	for i := 0; i < 63; i++ {
		req.Commands = append(req.Commands, req.Commands[0])
	}
	var auth struct {
		Results []AuthorizeResult `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/snap/authorize", req, &auth); code != http.StatusOK {
		t.Fatalf("authorize status %d", code)
	}
	for i, r := range auth.Results {
		if r.Allowed != auth.Results[0].Allowed {
			t.Fatalf("result %d diverged within one batch: %+v", i, r)
		}
	}
	if len(auth.Results) != 64 {
		t.Fatalf("got %d results", len(auth.Results))
	}
}

func BenchmarkHTTPAuthorizeBatch(b *testing.B) {
	reg := tenant.New(tenant.Options{Dir: b.TempDir(), Mode: engine.Refined})
	defer reg.Close()
	ts := httptest.NewServer(New(reg))
	defer ts.Close()
	if err := reg.InstallPolicy("bench", policy.Figure2()); err != nil {
		b.Fatal(err)
	}
	probe := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	wc, err := EncodeCommand(probe)
	if err != nil {
		b.Fatal(err)
	}
	var req BatchRequest
	for i := 0; i < 32; i++ {
		req.Commands = append(req.Commands, wc)
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/v1/tenants/bench/authorize"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestStatsExposesCacheCounters drives repeated authorize batches and
// verifies the decision-cache hit/miss counters surface on /stats.
func TestStatsExposesCacheCounters(t *testing.T) {
	ts := newTestServer(t)
	if code := putPolicy(t, ts.URL, "acme", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}
	probe := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	for i := 0; i < 3; i++ {
		var auth struct {
			Results []AuthorizeResult `json:"results"`
		}
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/authorize", wire(t, probe, probe), &auth)
		if code != http.StatusOK || len(auth.Results) != 2 || !auth.Results[0].Allowed {
			t.Fatalf("authorize %d: status %d results %+v", i, code, auth.Results)
		}
	}
	var st tenant.Stats
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tenants/acme/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Cache.Slots == 0 || st.Cache.Stores == 0 || st.Cache.Hits == 0 {
		t.Fatalf("stats missing cache counters: %+v", st.Cache)
	}
	// 6 queries total; the first is a doorkeeper pass (uncounted), the
	// second fills, the rest hit.
	if st.Cache.Hits+st.Cache.Misses < 4 {
		t.Fatalf("cache counters undercount the queries: %+v", st.Cache)
	}
}

// TestPooledScratchDoesNotLeakAcrossRequests pins the decode-scratch reuse:
// a command that omits fields must fail to decode (or decode to zero
// values), never inherit actor/op/vertices from a previous request that
// used the same pooled buffer.
func TestPooledScratchDoesNotLeakAcrossRequests(t *testing.T) {
	ts := newTestServer(t)
	if code := putPolicy(t, ts.URL, "acme", policy.Figure2()); code != http.StatusNoContent {
		t.Fatalf("put policy status %d", code)
	}
	full := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	// Drain concurrency: hammer the full request so every pooled scratch has
	// held jane's command at least once.
	for i := 0; i < 8; i++ {
		var auth struct {
			Results []AuthorizeResult `json:"results"`
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/authorize", wire(t, full), &auth); code != http.StatusOK || !auth.Results[0].Allowed {
			t.Fatalf("seed authorize: status %d %+v", code, auth.Results)
		}
	}
	// An empty command object must be rejected as having an unknown op — not
	// silently completed with the previous request's fields.
	for i := 0; i < 8; i++ {
		var out map[string]any
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/authorize",
			map[string]any{"commands": []map[string]any{{}}}, &out)
		if code != http.StatusBadRequest {
			t.Fatalf("empty command pass %d: status %d body %v (stale scratch leaked)", i, code, out)
		}
	}
	// Same for submit, where a leak would mutate and WAL-persist state.
	var out map[string]any
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit",
		map[string]any{"commands": []map[string]any{{"op": "grant"}}}, &out); code != http.StatusBadRequest {
		t.Fatalf("partial command submit: status %d body %v", code, out)
	}
}
