package replication

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// testPair stands up a primary registry behind an httptest source and a
// follower replicating into its own registry with test-friendly timings.
func testPair(t *testing.T, primOpts tenant.Options) (*tenant.Registry, *tenant.Registry, *Follower, *httptest.Server) {
	t.Helper()
	if primOpts.Dir == "" {
		primOpts.Dir = t.TempDir()
	}
	primOpts.Mode = engine.Refined
	prim := tenant.New(primOpts)
	t.Cleanup(func() { prim.Close() })

	mux := http.NewServeMux()
	NewSource(prim, SourceOptions{}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { folReg.Close() })
	fol := NewFollower(folReg, FollowerOptions{
		Upstream: ts.URL,
		PollWait: 200 * time.Millisecond,
		Backoff:  20 * time.Millisecond,
		SyncWait: 5 * time.Second,
	})
	t.Cleanup(fol.Close)
	return prim, folReg, fol, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFollowerReplicatesAndConverges(t *testing.T) {
	prim, folReg, fol, _ := testPair(t, tenant.Options{})
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := prim.Submit("alpha", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}

	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if gen, ok, err := folReg.WaitGeneration("alpha", 20, 5*time.Second); err != nil || !ok {
		t.Fatalf("follower stuck at generation %d (err %v)", gen, err)
	}

	// The long-poll picks up later writes without re-Ensure.
	for i := 20; i < 40; i++ {
		if _, err := prim.Submit("alpha", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if gen, ok, err := folReg.WaitGeneration("alpha", 40, 5*time.Second); err != nil || !ok {
		t.Fatalf("follower stuck at generation %d after more writes (err %v)", gen, err)
	}

	// Identical decisions for every probe, allowed and denied alike.
	probes := []command.Command{
		workload.ChurnGrant(41, 16, 16),
		command.Grant("nobody", model.User("u0001"), model.Role("c0002")),
		command.Revoke("churnadmin", model.User("u0000"), model.Role("c0000")),
	}
	for i, c := range probes {
		pr, err1 := prim.Authorize("alpha", c)
		fr, err2 := folReg.Authorize("alpha", c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if pr.OK != fr.OK {
			t.Fatalf("probe %d: primary %v follower %v", i, pr.OK, fr.OK)
		}
	}

	// The pull loop records its progress after the engine has published it,
	// so the telemetry may trail the generation waited for above by a moment.
	var lag LagStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var ok bool
		if lag, ok = fol.LagStats("alpha"); !ok {
			t.Fatal("no lag stats for replicated tenant")
		}
		if lag.Generation == 40 || time.Now().After(deadline) {
			break
		}
	}
	if lag.Generation != 40 || !lag.Healthy {
		t.Fatalf("lag stats %+v, want generation 40 healthy", lag)
	}
}

func TestFollowerBootstrapsPastCompaction(t *testing.T) {
	prim, folReg, fol, _ := testPair(t, tenant.Options{Dir: t.TempDir(), CompactEvery: 4})
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if _, err := prim.Submit("alpha", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// The primary compacted past seq 0: a fresh follower must bootstrap.
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if gen, ok, err := folReg.WaitGeneration("alpha", 11, 5*time.Second); err != nil || !ok {
		t.Fatalf("follower stuck at generation %d (err %v)", gen, err)
	}
	lag, _ := fol.LagStats("alpha")
	if lag.Bootstraps == 0 {
		t.Fatalf("expected a snapshot bootstrap, lag stats %+v", lag)
	}
}

func TestFollowerDetectsGenZeroInstall(t *testing.T) {
	prim, folReg, fol, _ := testPair(t, tenant.Options{})
	// Create the tenant upstream with no policy (a denied submit mints the
	// directory but applies nothing).
	if _, err := prim.Submit("alpha", command.Grant("nobody", model.User("u"), model.Role("r"))); err != nil {
		t.Fatal(err)
	}
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	// Both sides sit at generation 0 with an empty policy. Now the primary
	// provisions a policy without moving the generation — the case pure
	// generation comparison cannot see.
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "edge-checksum resync", func() bool {
		st, err := folReg.Stats("alpha")
		return err == nil && st.Policy.UA > 0
	})
	// And decisions now flow through the installed policy.
	res, err := folReg.Authorize("alpha", workload.ChurnGrant(0, 8, 8))
	if err != nil || !res.OK {
		t.Fatalf("follower authorize after resync: ok=%v err=%v", res.OK, err)
	}
}

func TestFollowerServesReadsWithUpstreamDown(t *testing.T) {
	prim, folReg, fol, ts := testPair(t, tenant.Options{})
	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(16, 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := prim.Submit("alpha", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := folReg.WaitGeneration("alpha", 5, 5*time.Second); err != nil || !ok {
		t.Fatal("follower did not converge before upstream drop")
	}

	ts.Close() // upstream gone

	// Reads keep working from the replayed local state and Ensure still
	// admits them: stale but available.
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatalf("Ensure with upstream down: %v", err)
	}
	res, err := folReg.Authorize("alpha", workload.ChurnGrant(5, 16, 16))
	if err != nil || !res.OK {
		t.Fatalf("read with upstream down: ok=%v err=%v", res.OK, err)
	}
	waitFor(t, "unhealthy lag stats", func() bool {
		lag, ok := fol.LagStats("alpha")
		return ok && !lag.Healthy && lag.LastError != ""
	})
}

func TestFollowerRetiresIdleTenants(t *testing.T) {
	prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer prim.Close()
	mux := http.NewServeMux()
	NewSource(prim, SourceOptions{}).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer folReg.Close()
	fol := NewFollower(folReg, FollowerOptions{
		Upstream:  ts.URL,
		PollWait:  50 * time.Millisecond,
		Backoff:   20 * time.Millisecond,
		IdleAfter: 150 * time.Millisecond,
	})
	defer fol.Close()

	if err := prim.InstallPolicy("alpha", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.Submit("alpha", workload.ChurnGrant(0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := folReg.WaitGeneration("alpha", 1, 5*time.Second); !ok {
		t.Fatal("follower did not converge")
	}

	// With no reads touching the tenant, the pull loop retires itself: the
	// goroutine and its standing long-poll go away.
	waitFor(t, "idle retirement", func() bool {
		_, ok := fol.LagStats("alpha")
		return !ok
	})
	// Local reads still serve, and the next Ensure resumes replication from
	// the durable local position.
	if res, err := folReg.Authorize("alpha", workload.ChurnGrant(1, 8, 8)); err != nil || !res.OK {
		t.Fatalf("read on retired tenant: ok=%v err=%v", res.OK, err)
	}
	if _, err := prim.Submit("alpha", workload.ChurnGrant(1, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fol.Ensure("alpha"); err != nil {
		t.Fatal(err)
	}
	if gen, ok, err := folReg.WaitGeneration("alpha", 2, 5*time.Second); err != nil || !ok {
		t.Fatalf("resumed follower stuck at %d (err %v)", gen, err)
	}
}

func TestEnsureUnknownTenantIsNotFound(t *testing.T) {
	_, _, fol, _ := testPair(t, tenant.Options{})
	err := fol.Ensure("ghost")
	if !tenant.IsNotFound(err) {
		t.Fatalf("Ensure(ghost) = %v, want not-found", err)
	}
	// The loop retires itself: no lag stats linger for the bogus name.
	waitFor(t, "ghost retirement", func() bool {
		_, ok := fol.LagStats("ghost")
		return !ok
	})
}

// TestSourceCloseReleasesParkedPull: a draining primary must not wait out its
// followers' long-polls. http.Server.Shutdown does not cancel the contexts of
// active handlers, so Close has to.
func TestSourceCloseReleasesParkedPull(t *testing.T) {
	prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer prim.Close()
	if err := prim.InstallPolicy("t", workload.ChurnPolicy(4, 4)); err != nil {
		t.Fatal(err)
	}
	src := NewSource(prim, SourceOptions{})
	mux := http.NewServeMux()
	src.Register(mux)
	for _, parkFirst := range []bool{true, false} {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/replicate/t/pull?after_seq=0&wait_ms=30000", nil))
		}()
		if parkFirst {
			// Long enough to park in the long-poll on any box; the second round
			// covers a poll arriving after the close.
			time.Sleep(50 * time.Millisecond)
		}
		src.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("parkFirst=%v: pull still parked 5s after Source.Close", parkFirst)
		}
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get(HeaderHead) != "0" {
			t.Fatalf("parkFirst=%v: released pull answered %d, %d bytes, head %q", parkFirst, rec.Code, rec.Body.Len(), rec.Header().Get(HeaderHead))
		}
	}
}
