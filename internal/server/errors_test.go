package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adminrefine/internal/api"
	"adminrefine/internal/engine"
	"adminrefine/internal/parser"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// TestErrorEnvelopeCatalog drives every reachable data-plane error path on
// one server and asserts the v1 contract: every non-2xx response is the
// unified envelope {"error":{"code":...,"message":...}} with the documented
// machine code — never a bare string, never a code invented per-handler.
// Error paths needing special topology or load (fenced 421s, staleness,
// misroutes, breaker and shed 503s/429s) are the conformance suite's, over
// both transports; this is the single-node HTTP catalogue.
func TestErrorEnvelopeCatalog(t *testing.T) {
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	srv := NewWithConfig(Config{Registry: reg, MinGenWait: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		reg.Close()
	})
	if code := putPolicy(t, ts.URL, "acme", workload.ChurnPolicy(4, 4)); code != http.StatusNoContent {
		t.Fatalf("seed policy: %d", code)
	}
	// One applied write gives acme administrative history, so the policy
	// re-upload row below conflicts (provisioning is only idempotent while
	// the tenant has no history at all).
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit",
		wire(t, workload.ChurnGrant(0, 4, 4)), nil); code != http.StatusOK {
		t.Fatalf("seed submit: %d", code)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string // "" means no body
		status int
		code   string
	}{
		{"submit malformed json", "POST", "/v1/tenants/acme/submit", "{", 400, api.CodeBadRequest},
		{"submit empty batch", "POST", "/v1/tenants/acme/submit", "{}", 400, api.CodeBadRequest},
		{"submit bad command op", "POST", "/v1/tenants/acme/submit", `{"commands":[{"op":"fly"}]}`, 400, api.CodeBadRequest},
		{"submit bad tenant name", "POST", "/v1/tenants/.bad/submit", `{"commands":[{"op":"grant","actor":"a","from":{"kind":"user","name":"b"},"to":{"kind":"role","name":"c"}}]}`, 400, api.CodeBadRequest},
		{"authorize unknown tenant", "POST", "/v1/tenants/ghost/authorize", `{"commands":[{"op":"grant","actor":"a","from":{"kind":"user","name":"b"},"to":{"kind":"role","name":"c"}}]}`, 404, api.CodeNotFound},
		{"authorize malformed json", "POST", "/v1/tenants/acme/authorize", "[", 400, api.CodeBadRequest},
		{"authorize unreachable min_generation", "POST", "/v1/tenants/acme/authorize",
			`{"commands":[{"op":"grant","actor":"a","from":{"kind":"user","name":"b"},"to":{"kind":"role","name":"c"}}],"min_generation":1000000}`, 409, api.CodeStaleGeneration},
		{"explain malformed json", "POST", "/v1/tenants/acme/explain", "{", 400, api.CodeBadRequest},
		{"explain unknown tenant", "POST", "/v1/tenants/ghost/explain", `{"command":{"op":"grant","actor":"a","from":{"kind":"user","name":"b"},"to":{"kind":"role","name":"c"}}}`, 404, api.CodeNotFound},
		{"session create malformed json", "POST", "/v1/tenants/acme/sessions", "{", 400, api.CodeBadRequest},
		{"session create without user", "POST", "/v1/tenants/acme/sessions", `{"activate":["member"]}`, 400, api.CodeBadRequest},
		{"session create role not held", "POST", "/v1/tenants/acme/sessions", `{"user":"cu0000","activate":["churnadmins"]}`, 403, api.CodeForbidden},
		{"session create unknown tenant", "POST", "/v1/tenants/ghost/sessions", `{"user":"u"}`, 404, api.CodeNotFound},
		{"session update unparsable sid", "POST", "/v1/tenants/acme/sessions/zap", `{"activate":["member"]}`, 400, api.CodeBadRequest},
		{"session update unknown sid", "POST", "/v1/tenants/acme/sessions/9999", `{"activate":["member"]}`, 404, api.CodeNotFound},
		{"session delete unknown sid", "DELETE", "/v1/tenants/acme/sessions/9999", "", 404, api.CodeNotFound},
		{"check malformed json", "POST", "/v1/tenants/acme/check", "{", 400, api.CodeBadRequest},
		{"check empty batch", "POST", "/v1/tenants/acme/check", `{"session":1}`, 400, api.CodeBadRequest},
		{"check unknown session", "POST", "/v1/tenants/acme/check", `{"session":9999,"checks":[{"action":"read","object":"x"}]}`, 404, api.CodeNotFound},
		{"audit bad after", "GET", "/v1/tenants/acme/audit?after=minusone", "", 400, api.CodeBadRequest},
		{"audit bad limit", "GET", "/v1/tenants/acme/audit?limit=all", "", 400, api.CodeBadRequest},
		{"audit unknown tenant", "GET", "/v1/tenants/ghost/audit", "", 404, api.CodeNotFound},
		{"stats unknown tenant", "GET", "/v1/tenants/ghost/stats", "", 404, api.CodeNotFound},
		{"stats bad tenant name", "GET", "/v1/tenants/bad..name/stats", "", 400, api.CodeBadRequest},
		{"policy parse error", "PUT", "/v1/tenants/fresh/policy", "role r1 {", 400, api.CodeBadRequest},
		{"policy with do statements", "PUT", "/v1/tenants/fresh/policy", "do grant(a, user:b, role:c)", 400, api.CodeBadRequest},
		{"policy re-upload conflict", "PUT", "/v1/tenants/acme/policy", "", 409, api.CodeConflict},
		{"promote stale epoch", "POST", "/v1/cluster/promote", `{"if_epoch":41}`, 409, api.CodeConflict},
		{"promote via the removed alias", "POST", "/v1/promote", `{"if_epoch":41}`, 404, api.CodeNotFound},
		{"repoint via the removed alias", "POST", "/v1/repoint", `{"upstream":"http://x:1"}`, 404, api.CodeNotFound},
		{"repoint without upstream", "POST", "/v1/cluster/repoint", `{}`, 400, api.CodeBadRequest},
		{"repoint a primary", "POST", "/v1/cluster/repoint", `{"upstream":"http://x:1"}`, 409, api.CodeConflict},
		{"migrate outside cluster mode", "POST", "/v1/cluster/migrate", `{"tenant":"acme","to":"n1"}`, 400, api.CodeBadRequest},
		{"adopt outside cluster mode", "POST", "/v1/cluster/adopt", `{"tenant":"acme","from":"http://x:1"}`, 400, api.CodeBadRequest},
		{"node repoint outside cluster mode", "POST", "/v1/cluster/nodes", `{"id":"n1","addr":"http://x:1"}`, 400, api.CodeBadRequest},
		{"placement push outside cluster mode", "POST", "/v1/cluster/placement", `{"version":1}`, 400, api.CodeBadRequest},
		{"placement get without map", "GET", "/v1/cluster/placement", "", 404, api.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The conflict row needs a real policy body to get past parsing.
			body := tc.body
			if tc.name == "policy re-upload conflict" {
				body = parser.Print(workload.ChurnPolicy(4, 4), nil)
			}
			var rdr io.Reader
			if body != "" {
				rdr = strings.NewReader(body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rdr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, raw)
			}
			var envl struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(raw, &envl); err != nil || envl.Error == nil {
				t.Fatalf("body is not the unified envelope: %s (%v)", raw, err)
			}
			if envl.Error.Code != tc.code {
				t.Fatalf("code %q, want %q (message %q)", envl.Error.Code, tc.code, envl.Error.Message)
			}
			if envl.Error.Message == "" {
				t.Fatal("envelope carries no message")
			}
			// The typed Decode used by clients round-trips the same envelope.
			if e := api.Decode(resp.StatusCode, raw); e.Code != tc.code {
				t.Fatalf("api.Decode code %q, want %q", e.Code, tc.code)
			}
		})
	}
}
