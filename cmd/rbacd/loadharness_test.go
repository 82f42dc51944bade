package main

import (
	"sync/atomic"
	"testing"
	"time"

	"adminrefine/internal/workload"
)

// TestLoadHarnessEndToEnd drives the open-loop socket harness against a real
// rbacd pair — a -sync primary taking the durable writes and a follower
// serving the reads — and then asserts the primary drains cleanly on SIGTERM
// while load is still arriving. This is the deployment-shaped serving smoke:
// real processes, real TCP sockets, the HTTP API, and read-your-writes tokens
// crossing the replication stream.
func TestLoadHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process load smoke")
	}
	mix := workload.DefaultServeMix(7)
	mix.Tenants = 4
	mix.Roles, mix.Users = 16, 32
	g := workload.NewMultiTenantGen(mix.MultiTenantConfig)

	prim := startDaemon(t,
		"-addr", "127.0.0.1:0", "-data", t.TempDir(),
		"-sync", "-compact-every", "-1")
	for i := 0; i < mix.Tenants; i++ {
		prim.putPolicy(t, g.TenantName(i), g.Policy(i))
	}
	fol := startDaemon(t,
		"-addr", "127.0.0.1:0", "-data", t.TempDir(),
		"-role", "follower", "-upstream", prim.base)

	// Phase 1: steady-state load, reads on the follower, writes on the
	// primary. At a modest offered rate everything must complete, nothing
	// may drop, and no read-your-writes token may answer 409 — the follower
	// catches up within its min-generation wait.
	target := &httpTarget{ReadBase: fol.base, WriteBase: prim.base}
	ops := workload.GenServeOps(mix, 2048)
	res, err := workload.RunOpenLoop(workload.OpenLoopConfig{
		Rate:     200,
		Duration: 2 * time.Second,
		Workers:  8,
	}, ops, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("harness completed no ops against the live pair")
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d ops failed at steady state (%d stale)", res.Errors, res.Completed, res.Stale)
	}
	if res.Stale != 0 {
		t.Fatalf("%d reads answered 409 at steady state — follower could not honor read-your-writes", res.Stale)
	}
	if res.Dropped() != 0 {
		t.Fatalf("%d ops dropped at %0.f ops/s — target could not absorb a trivial rate", res.Dropped(), res.Offered)
	}
	for _, kind := range []string{"authorize", "check", "submit"} {
		ks := res.Kinds[kind]
		if ks == nil || ks.Count == 0 {
			t.Fatalf("no %s ops completed: %+v", kind, res.Kinds)
		}
		if ks.Hist.Max() <= 0 {
			t.Fatalf("%s recorded no latency", kind)
		}
	}
	t.Logf("steady state: %d ops, achieved %.0f/s offered %.0f/s", res.Completed, res.Achieved, res.Offered)

	// Phase 2: SIGTERM mid-load. A second open-loop run keeps hitting the
	// primary while it is told to shut down; the drain must still exit
	// cleanly (status 0) with requests in flight. Post-SIGTERM request
	// failures are expected — the assertion is the clean exit, checked by
	// terminate.
	var started atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		probe := &startedTarget{Target: &httpTarget{ReadBase: prim.base}, started: &started}
		workload.RunOpenLoop(workload.OpenLoopConfig{
			Rate:       200,
			Duration:   2 * time.Second,
			Workers:    4,
			MaxOverrun: time.Second,
		}, ops, probe)
	}()
	for !started.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	prim.terminate(t)
	<-done
}

// startedTarget flags once the first op has gone out, so the test terminates
// the daemon only with load genuinely in flight.
type startedTarget struct {
	Target  *httpTarget
	started *atomic.Bool
}

func (s *startedTarget) Do(op *workload.ServeOp, minGen uint64) (uint64, error) {
	gen, err := s.Target.Do(op, minGen)
	s.started.Store(true)
	return gen, err
}
