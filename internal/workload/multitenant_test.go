package workload

import (
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/tenant"
)

func TestMultiTenantGenDeterministic(t *testing.T) {
	cfg := DefaultMultiTenant(7)
	a, b := NewMultiTenantGen(cfg), NewMultiTenantGen(cfg)
	for i := 0; i < 500; i++ {
		x, y := a.Next(), b.Next()
		if x.Tenant != y.Tenant || x.Submit != y.Submit || x.Cmd.Key() != y.Cmd.Key() {
			t.Fatalf("op %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestMultiTenantGenSkew(t *testing.T) {
	g := NewMultiTenantGen(DefaultMultiTenant(1))
	counts := make(map[string]int)
	for i := 0; i < 5000; i++ {
		counts[g.Next().Tenant]++
	}
	// Zipf: tenant 0 must dominate the tail.
	if counts[g.TenantName(0)] < counts[g.TenantName(g.cfg.Tenants-1)] {
		t.Fatalf("no skew: head %d, tail %d", counts[g.TenantName(0)], counts[g.TenantName(g.cfg.Tenants-1)])
	}
	if counts[g.TenantName(0)] < 5000/4 {
		t.Fatalf("head tenant got only %d of 5000 ops", counts[g.TenantName(0)])
	}
}

// TestMultiTenantGenDrivesRegistry runs the generated stream end-to-end
// against a real registry: every generated operation must succeed (churn
// submits are always authorized; churn queries always allowed).
func TestMultiTenantGenDrivesRegistry(t *testing.T) {
	cfg := DefaultMultiTenant(3)
	cfg.Tenants = 8
	cfg.Roles, cfg.Users = 16, 16
	cfg.SubmitFrac = 0.2
	g := NewMultiTenantGen(cfg)
	reg := tenant.New(tenant.Options{
		Dir:       t.TempDir(),
		Mode:      engine.Refined,
		Bootstrap: g.Bootstrap,
	})
	defer reg.Close()

	for i := 0; i < 300; i++ {
		op := g.Next()
		if op.Submit {
			res, err := reg.Submit(op.Tenant, op.Cmd)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome == command.Denied || res.Outcome == command.IllFormed {
				t.Fatalf("op %d: churn submit rejected: %v", i, res.Outcome)
			}
			continue
		}
		res, err := reg.Authorize(op.Tenant, op.Cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("op %d: churn query denied on %s", i, op.Tenant)
		}
	}

	name, cmds := g.QueryBatch(32)
	batch, _, err := reg.AuthorizeBatchInto(name, cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batch {
		if !r.OK {
			t.Fatalf("batch query %d denied", i)
		}
	}
}

func TestBootstrapRejectsForeignNames(t *testing.T) {
	g := NewMultiTenantGen(DefaultMultiTenant(1))
	if g.Bootstrap("not-a-generated-name") != nil {
		t.Fatal("foreign name bootstrapped")
	}
	if g.Bootstrap("t999") != nil {
		t.Fatal("out-of-range index bootstrapped")
	}
	if g.Bootstrap(g.TenantName(0)) == nil {
		t.Fatal("generated name not bootstrapped")
	}
}
