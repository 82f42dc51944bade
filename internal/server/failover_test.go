package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adminrefine/internal/engine"
	"adminrefine/internal/replication"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// failoverPair stands up an in-process primary server and a follower server
// replicating from it, both with their own (in-memory) epoch handles.
func failoverPair(t *testing.T) (primTS, folTS *httptest.Server, folSrv *Server) {
	t.Helper()
	primReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	primSrv := NewWithConfig(Config{Registry: primReg, Epoch: replication.NewEpoch(0, nil)})
	primTS = httptest.NewServer(primSrv)
	t.Cleanup(func() {
		primTS.Close()
		primSrv.Close()
		primReg.Close()
	})

	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	fol := replication.NewFollower(folReg, replication.FollowerOptions{
		Upstream: primTS.URL,
		PollWait: 100 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
		SyncWait: 5 * time.Second,
	})
	folSrv = NewWithConfig(Config{
		Registry:   folReg,
		Follower:   fol,
		MinGenWait: 5 * time.Second,
		Epoch:      replication.NewEpoch(0, nil),
	})
	folTS = httptest.NewServer(folSrv)
	t.Cleanup(func() {
		folTS.Close()
		folSrv.Close() // closes the follower: the server owns its lifecycle
		folReg.Close()
	})
	return primTS, folTS, folSrv
}

// TestPromoteFlipsFollowerToPrimary walks the planned-failover control flow
// end to end in process: replicated reads and redirected writes as a
// follower, conditional-promotion CAS guards, the promotion itself (durable
// epoch bump before the first served write), and epoch-stamped write acks
// afterwards.
func TestPromoteFlipsFollowerToPrimary(t *testing.T) {
	primTS, folTS, folSrv := failoverPair(t)

	if code := putPolicy(t, primTS.URL, "acme", workload.ChurnPolicy(8, 8)); code != http.StatusNoContent {
		t.Fatalf("put policy: %d", code)
	}
	var sub batchResponse
	for i := 0; i < 3; i++ {
		if code := doJSON(t, http.MethodPost, primTS.URL+"/v1/tenants/acme/submit",
			wire(t, workload.ChurnGrant(i, 8, 8)), &sub); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
	}

	// The follower serves the replicated state and redirects writes upstream
	// (the in-process follower-role baseline).
	var auth batchResponse
	req := wire(t, workload.ChurnGrant(3, 8, 8))
	req.MinGeneration = 3
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/tenants/acme/authorize", req, &auth); code != http.StatusOK {
		t.Fatalf("follower read: %d", code)
	}
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/tenants/acme/submit",
		wire(t, workload.ChurnGrant(3, 8, 8)), &sub); code != http.StatusOK || sub.Generation != 4 {
		t.Fatalf("redirected write: %d gen %d", code, sub.Generation)
	}
	// Chase the redirected write's token on the follower: the promotion below
	// must start from generation 4, not race the pull that ships it.
	req.MinGeneration = 4
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/tenants/acme/authorize", req, &auth); code != http.StatusOK {
		t.Fatalf("follower read at the redirected write's token: %d", code)
	}
	if folSrv.Role() != "follower" {
		t.Fatalf("role %q", folSrv.Role())
	}

	// The CAS guard refuses a promotion conditioned on a stale epoch, and a
	// serving primary refuses to be repointed out from under its followers.
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/cluster/promote", map[string]any{"if_epoch": 99}, nil); code != http.StatusConflict {
		t.Fatalf("stale-epoch promote: %d, want 409", code)
	}
	if code := doJSON(t, http.MethodPost, primTS.URL+"/v1/cluster/repoint", map[string]any{"upstream": folTS.URL}, nil); code != http.StatusConflict {
		t.Fatalf("repoint of serving primary: %d, want 409", code)
	}
	if folSrv.Role() != "follower" || folSrv.Epoch() != 0 {
		t.Fatalf("refused transitions changed the node: %s epoch %d", folSrv.Role(), folSrv.Epoch())
	}

	// Promote. The response carries the new role and epoch; a repeat is an
	// idempotent no-op (same epoch, no second advance).
	var rc struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/cluster/promote", nil, &rc); code != http.StatusOK || rc.Role != "primary" || rc.Epoch != 1 {
		t.Fatalf("promote: %d %+v", code, rc)
	}
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/cluster/promote", nil, &rc); code != http.StatusOK || rc.Epoch != 1 {
		t.Fatalf("repeated promote: %d %+v, want idempotent epoch 1", code, rc)
	}

	// The promoted node serves writes itself, acks stamped with the new
	// epoch, generations continuing where the old primary's history ended.
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/tenants/acme/submit",
		wire(t, workload.ChurnGrant(4, 8, 8)), &sub); code != http.StatusOK {
		t.Fatalf("write on promoted node: %d", code)
	}
	if sub.Generation != 5 || sub.Epoch != 1 {
		t.Fatalf("promoted ack generation %d epoch %d, want 5 at epoch 1", sub.Generation, sub.Epoch)
	}
}

// TestRepointValidation pins the repoint endpoint's input contract.
func TestRepointValidation(t *testing.T) {
	_, folTS, _ := failoverPair(t)
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/cluster/repoint", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("repoint without upstream: %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, folTS.URL+"/v1/cluster/repoint", map[string]any{"upstream": "http://x", "if_epoch": 42}, nil); code != http.StatusConflict {
		t.Fatalf("stale-epoch repoint: %d, want 409", code)
	}
}
