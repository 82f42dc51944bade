package replication

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// TestReplicatedChurnMultiTenant drives the workload.ReplicatedGen
// multi-node generator against a real topology — one primary, two
// followers, Zipf-skewed tenants — honouring every generated routing
// decision and generation token: writes go to the primary, reads go to the
// designated follower, and a read carrying a token first waits for that
// follower to reach it, then asserts the decision matches the primary's at
// that generation. This is the oracle for the generator's token accounting
// (its assumed generation must equal the primary's actual one) and for
// cross-follower read-your-writes under churn.
func TestReplicatedChurnMultiTenant(t *testing.T) {
	cfg := workload.DefaultReplicated(11)
	cfg.Tenants = 4
	cfg.Roles, cfg.Users = 16, 16
	cfg.SubmitFrac = 0.2
	cfg.TokenFrac = 0.5
	g := workload.NewReplicatedGen(cfg)

	prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Bootstrap: g.Bootstrap})
	defer prim.Close()
	mux := http.NewServeMux()
	NewSource(prim, SourceOptions{}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	followers := make([]*tenant.Registry, cfg.Followers)
	for i := range followers {
		folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
		defer folReg.Close()
		fol := NewFollower(folReg, FollowerOptions{
			Upstream: ts.URL,
			PollWait: 150 * time.Millisecond,
			Backoff:  20 * time.Millisecond,
		})
		defer fol.Close()
		followers[i] = folReg
		// First touch starts replication of every tenant on every follower.
		for j := 0; j < cfg.Tenants; j++ {
			if err := fol.Ensure(g.TenantName(j)); err != nil {
				t.Fatalf("follower %d ensure %s: %v", i, g.TenantName(j), err)
			}
		}
	}

	const ops = 600
	reads, tokenReads := 0, 0
	for i := 0; i < ops; i++ {
		op := g.Next()
		if op.Submit {
			res, err := prim.Submit(op.Tenant, op.Cmd)
			if err != nil || res.Outcome != command.Applied {
				t.Fatalf("op %d: write %s outcome=%v err=%v", i, op.Tenant, res.Outcome, err)
			}
			// The generator's token accounting must track the primary
			// exactly: its assumed generation is the real one.
			st, err := prim.Stats(op.Tenant)
			if err != nil {
				t.Fatal(err)
			}
			var idx int
			if _, err := fmt.Sscanf(op.Tenant, "r%03d", &idx); err != nil {
				t.Fatal(err)
			}
			if st.Generation != g.Generation(idx) {
				t.Fatalf("op %d: generator thinks %s is at %d, primary at %d",
					i, op.Tenant, g.Generation(idx), st.Generation)
			}
			continue
		}
		reads++
		fol := followers[op.Node]
		if op.MinGeneration > 0 {
			tokenReads++
			gen, ok, err := fol.WaitGenerationCtx(context.Background(), op.Tenant, op.MinGeneration, 10*time.Second)
			if err != nil || !ok {
				t.Fatalf("op %d: follower %d stuck at %d for token %d on %s (err %v)",
					i, op.Node, gen, op.MinGeneration, op.Tenant, err)
			}
		}
		fr, err := fol.Authorize(op.Tenant, op.Cmd)
		if err != nil {
			t.Fatalf("op %d: follower %d authorize %s: %v", i, op.Node, op.Tenant, err)
		}
		if op.MinGeneration > 0 {
			// At or past the token, the follower's decision must match the
			// primary's (churn reads probe the next unapplied grant, which
			// the churn fixture always authorizes).
			pr, err := prim.Authorize(op.Tenant, op.Cmd)
			if err != nil {
				t.Fatal(err)
			}
			if fr.OK != pr.OK {
				t.Fatalf("op %d: follower %d says %v, primary says %v for %s at token %d",
					i, op.Node, fr.OK, pr.OK, op.Tenant, op.MinGeneration)
			}
		}
	}
	if reads == 0 || tokenReads == 0 {
		t.Fatalf("degenerate stream: %d reads, %d with tokens", reads, tokenReads)
	}

	// Every follower converges to the primary's final generations.
	for j := 0; j < cfg.Tenants; j++ {
		name := g.TenantName(j)
		want, err := prim.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, fol := range followers {
			if gen, ok, err := fol.WaitGenerationCtx(context.Background(), name, want.Generation, 10*time.Second); err != nil || !ok {
				t.Fatalf("follower %d stuck at %d on %s, want %d (err %v)", i, gen, name, want.Generation, err)
			}
		}
	}
}
