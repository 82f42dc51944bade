package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/engine"
	"adminrefine/internal/parser"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// overloadServer builds a primary and returns both the live Server and its
// listener, with one provisioned tenant "t". The overload contract itself
// (sheds, deadlines, the breaker) is the conformance suite's; what stays
// here is the HTTP codec's own: the deadline header.
func overloadServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	cfg.Registry = reg
	srv := NewWithConfig(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		reg.Close()
	})
	if code := putPolicy(t, ts.URL, "t", workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
		t.Fatalf("put policy: %d", code)
	}
	return srv, ts
}

// The deadline header is strict: garbage and non-positive budgets are 400.
func TestRequestDeadlineHeaderValidation(t *testing.T) {
	_, ts := overloadServer(t, Config{})
	req := wire(t, workload.ChurnGrant(0, 8, 8))
	for _, bad := range []string{"soon", "-5", "0", "-2s", "0ms"} {
		resp := postJSON(t, ts.URL+"/v1/tenants/t/authorize", req, map[string]string{
			HeaderRequestDeadline: bad,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q got %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, good := range []string{"5000", "5s"} {
		resp := postJSON(t, ts.URL+"/v1/tenants/t/authorize", req, map[string]string{
			HeaderRequestDeadline: good,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q got %d, want 200", good, resp.StatusCode)
		}
	}
}

// postJSON posts body with optional headers and returns the raw response
// (closed body) for status/header assertions.
func postJSON(t *testing.T, url string, body any, headers map[string]string) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// waitForCond polls cond with a 5s budget.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkShedPath prices what a request refused for capacity still costs,
// now that every op decodes its body before admission: a one-command
// authorize and a 64-role × 256-user policy upload through ServeHTTP while
// both admission classes are held full.
func BenchmarkShedPath(b *testing.B) {
	adm := admission.New(admission.Config{Read: admission.Limits{MaxInFlight: 1}, Write: admission.Limits{MaxInFlight: 1}})
	reg := tenant.New(tenant.Options{Dir: b.TempDir(), Mode: engine.Refined})
	srv := NewWithConfig(Config{Registry: reg, Admission: adm})
	b.Cleanup(func() { srv.Close(); reg.Close() })
	for _, cl := range []admission.Class{admission.Read, admission.Write} {
		release, err := adm.Acquire(context.Background(), cl)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(release)
	}
	wc, err := EncodeCommand(workload.ChurnGrant(0, 8, 8))
	if err != nil {
		b.Fatal(err)
	}
	authz, err := json.Marshal(BatchRequest{Commands: []WireCommand{wc}})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, method, path string
		body               []byte
		status             int
	}{
		{"authorize", http.MethodPost, "/v1/tenants/t/authorize", authz, http.StatusTooManyRequests},
		{"policy-64x256", http.MethodPut, "/v1/tenants/t/policy", []byte(parser.Print(workload.ChurnPolicy(64, 256), nil)), http.StatusServiceUnavailable},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
				if rec.Code != c.status {
					b.Fatalf("shed %s: %d, want %d", c.name, rec.Code, c.status)
				}
			}
		})
	}
}
