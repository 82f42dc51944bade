package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/replication"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// replicaPair stands up a primary server and a follower server replicating
// from it, both over httptest.
func replicaPair(t *testing.T) (primary, follower *httptest.Server) {
	t.Helper()
	primReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	primary = httptest.NewServer(New(primReg))
	t.Cleanup(func() {
		primary.Close()
		primReg.Close()
	})

	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	fol := replication.NewFollower(folReg, replication.FollowerOptions{
		Upstream: primary.URL,
		PollWait: 200 * time.Millisecond,
		Backoff:  20 * time.Millisecond,
	})
	follower = httptest.NewServer(NewWithConfig(Config{
		Registry:   folReg,
		Follower:   fol,
		MinGenWait: 3 * time.Second,
	}))
	t.Cleanup(func() {
		follower.Close()
		fol.Close()
		folReg.Close()
	})
	return primary, follower
}

type genEnvelope struct {
	Results    []AuthorizeResult `json:"results"`
	Generation uint64            `json:"generation"`
	Error      string            `json:"error,omitempty"`
}

func TestFollowerStatsCarryReplication(t *testing.T) {
	primary, follower := replicaPair(t)
	if code := putPolicy(t, primary.URL, "acme", workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
		t.Fatalf("put policy: %d", code)
	}
	var auth genEnvelope
	if code := doJSON(t, http.MethodPost, follower.URL+"/v1/tenants/acme/authorize",
		wire(t, workload.ChurnGrant(0, 8, 8)), &auth); code != http.StatusOK {
		t.Fatalf("follower authorize: %d", code)
	}

	resp, err := http.Get(follower.URL + "/v1/tenants/acme/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Tenant      string                `json:"tenant"`
		Replication *replication.LagStats `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil {
		t.Fatal("follower stats missing replication block")
	}
	if !st.Replication.Healthy || st.Replication.Bootstraps == 0 {
		t.Fatalf("replication stats %+v", st.Replication)
	}

	// Primary stats stay shaped as before (no replication block) and
	// healthz names the roles.
	resp2, err := http.Get(primary.URL + "/v1/tenants/acme/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["replication"]; ok {
		t.Fatal("primary stats should not carry a replication block")
	}
	var health struct {
		Role     string `json:"role"`
		Upstream string `json:"upstream"`
	}
	if code := doJSON(t, http.MethodGet, follower.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Role != "follower" || health.Upstream != primary.URL {
		t.Fatalf("follower healthz %+v", health)
	}
}

// TestPrimaryMinGeneration covers the token on a single node: a satisfied
// token answers immediately, the generation echo matches, and explain
// honours the token too.
func TestPrimaryMinGeneration(t *testing.T) {
	ts := newTestServer(t)
	if code := putPolicy(t, ts.URL, "acme", workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
		t.Fatalf("put policy: %d", code)
	}
	var sub struct {
		Generation uint64 `json:"generation"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/submit",
		wire(t, workload.ChurnGrant(0, 8, 8)), &sub); code != http.StatusOK {
		t.Fatal("submit failed")
	}
	req := wire(t, workload.ChurnGrant(1, 8, 8))
	req.MinGeneration = sub.Generation
	var auth genEnvelope
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/authorize", req, &auth); code != http.StatusOK {
		t.Fatalf("authorize with satisfied token: %d", code)
	}
	if auth.Generation != sub.Generation {
		t.Fatalf("authorize generation %d, want %d", auth.Generation, sub.Generation)
	}

	exp := ExplainRequest{MinGeneration: sub.Generation}
	wc, err := EncodeCommand(command.Grant("churnadmin", model.User("u0001"), model.Role("c0001")))
	if err != nil {
		t.Fatal(err)
	}
	exp.Command = wc
	var expOut struct {
		Explanation string `json:"explanation"`
		Generation  uint64 `json:"generation"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/tenants/acme/explain", exp, &expOut); code != http.StatusOK {
		t.Fatalf("explain with token: %d", code)
	}
	if expOut.Generation != sub.Generation || expOut.Explanation == "" {
		t.Fatalf("explain response %+v", expOut)
	}
}
