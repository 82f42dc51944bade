package tenant

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

func churnRegistry(t *testing.T, dir string, opts Options) *Registry {
	t.Helper()
	opts.Dir = dir
	opts.Mode = engine.Refined
	if opts.Bootstrap == nil {
		opts.Bootstrap = func(string) *policy.Policy { return workload.ChurnPolicy(16, 16) }
	}
	return New(opts)
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "tenant-1", "T_2", "0123456789"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "é", string(long)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

func TestLazyOpenBootstrapAndIsolation(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()

	if got := reg.Resident(); got != 0 {
		t.Fatalf("resident before first touch = %d", got)
	}
	// First touch opens and bootstraps tenant a.
	res, err := reg.Submit("a", workload.ChurnGrant(0, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != command.Applied {
		t.Fatalf("submit outcome %v", res.Outcome)
	}
	if got := reg.Resident(); got != 1 {
		t.Fatalf("resident = %d, want 1", got)
	}

	// Tenant b is isolated: same command stream, independent generation.
	ar, err := reg.Authorize("b", workload.ChurnGrant(0, 16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !ar.OK {
		t.Fatal("churn grant should be authorized in bootstrapped tenant")
	}
	sa, _ := reg.Stats("a")
	sb, _ := reg.Stats("b")
	if sa.Generation != 1 || sb.Generation != 0 {
		t.Fatalf("generations a=%d b=%d, want 1, 0", sa.Generation, sb.Generation)
	}
}

func TestRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	reg := churnRegistry(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := reg.Submit("t1", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	probe := workload.ChurnGrant(n, 16, 16)
	before, err := reg.Authorize("t1", probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := churnRegistry(t, dir, Options{})
	defer reg2.Close()
	after, err := reg2.Authorize("t1", probe)
	if err != nil {
		t.Fatal(err)
	}
	if before.OK != after.OK {
		t.Fatalf("decision changed across reopen: %v -> %v", before.OK, after.OK)
	}
	st, err := reg2.Stats("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != n {
		t.Fatalf("recovered generation %d, want %d", st.Generation, n)
	}
}

func TestLRUEvictionCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	reg := churnRegistry(t, dir, Options{Shards: 1, MaxResident: 2})
	defer reg.Close()

	names := []string{"e0", "e1", "e2", "e3"}
	for _, n := range names {
		if _, err := reg.Submit(n, workload.ChurnGrant(0, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2 (MaxResident)", got)
	}
	// Evicted tenants were compacted: reopening replays no WAL records.
	st, err := reg.Stats("e0")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered.SnapshotLoaded {
		t.Fatal("evicted tenant should reopen from a compacted snapshot")
	}
	if st.Recovered.Records != 0 {
		t.Fatalf("evicted tenant replayed %d WAL records, want 0", st.Recovered.Records)
	}
	if st.Generation != 1 {
		t.Fatalf("recovered generation %d, want 1", st.Generation)
	}
}

func TestExplicitEvict(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()
	if _, err := reg.Submit("x", workload.ChurnGrant(0, 16, 16)); err != nil {
		t.Fatal(err)
	}
	if !reg.Evict("x") {
		t.Fatal("Evict(x) = false for idle resident tenant")
	}
	if reg.Evict("x") {
		t.Fatal("Evict(x) = true for non-resident tenant")
	}
	if got := reg.Resident(); got != 0 {
		t.Fatalf("resident = %d after evict", got)
	}
}

func TestCompactionTrigger(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{CompactEvery: 8})
	defer reg.Close()
	for i := 0; i < 20; i++ {
		if _, err := reg.Submit("c", workload.ChurnGrant(i, 16, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := reg.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	if st.SinceCompact >= 8 {
		t.Fatalf("since_compact = %d, want < CompactEvery(8)", st.SinceCompact)
	}
	if st.Generation != 20 {
		t.Fatalf("generation = %d, want 20", st.Generation)
	}
}

func TestBatchMatchesSingles(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()

	cmds := make([]command.Command, 32)
	for i := range cmds {
		cmds[i] = workload.ChurnGrant(i, 16, 16)
	}
	// An ill-formed command inside the batch must not derail the rest.
	cmds[7] = command.Command{Actor: "nobody", Op: model.OpGrant, From: model.Perm("a", "b"), To: model.Role("r")}

	batch, _, err := reg.AuthorizeBatchInto("t", cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cmds {
		single, err := reg.Authorize("t", c)
		if err != nil {
			t.Fatal(err)
		}
		if single.OK != batch[i].OK {
			t.Fatalf("cmd %d: batch %v, single %v", i, batch[i].OK, single.OK)
		}
	}

	sub, gen, err := reg.SubmitBatch("t", cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != len(cmds) {
		t.Fatalf("submit batch returned %d results", len(sub))
	}
	if want := uint64(31); gen != want {
		t.Fatalf("submit batch generation token = %d, want %d", gen, want)
	}
	if sub[7].Outcome != command.IllFormed {
		t.Fatalf("ill-formed command outcome %v", sub[7].Outcome)
	}
	st, _ := reg.Stats("t")
	if want := uint64(31); st.Generation != want {
		t.Fatalf("generation after batch = %d, want %d", st.Generation, want)
	}
}

func TestInstallPolicyOnlyWhenEmpty(t *testing.T) {
	reg := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer reg.Close()

	if err := reg.InstallPolicy("p", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Submit("p", workload.ChurnGrant(0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := reg.InstallPolicy("p", workload.ChurnPolicy(8, 8)); err == nil {
		t.Fatal("InstallPolicy succeeded on a tenant with history")
	}
}

func TestConcurrentTenants(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{Shards: 4, MaxResident: 4})
	defer reg.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", g%4)
			for i := 0; i < 50; i++ {
				if i%5 == 0 {
					if _, err := reg.Submit(name, workload.ChurnGrant(g*50+i, 16, 16)); err != nil {
						errc <- err
						return
					}
					continue
				}
				if _, err := reg.Authorize(name, workload.ChurnGrant(i, 16, 16)); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestReadsDoNotCreateTenants(t *testing.T) {
	dir := t.TempDir()
	reg := New(Options{Dir: dir, Mode: engine.Refined}) // no Bootstrap
	defer reg.Close()

	if _, err := reg.Authorize("ghost", workload.ChurnGrant(0, 8, 8)); !IsNotFound(err) {
		t.Fatalf("Authorize on unknown tenant: err = %v, want not-found", err)
	}
	if _, err := reg.Stats("ghost"); !IsNotFound(err) {
		t.Fatalf("Stats on unknown tenant: err = %v, want not-found", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost")); !os.IsNotExist(err) {
		t.Fatalf("read-only touch minted on-disk state: %v", err)
	}
	// Writes do create the tenant; reads then see it.
	if _, err := reg.Submit("ghost", workload.ChurnGrant(0, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Stats("ghost"); err != nil {
		t.Fatalf("Stats after submit: %v", err)
	}
}

func TestInstallPolicySwapIsRaceFree(t *testing.T) {
	reg := New(Options{Dir: t.TempDir(), Mode: engine.Refined})
	defer reg.Close()
	if err := reg.InstallPolicy("p", workload.ChurnPolicy(8, 8)); err != nil {
		t.Fatal(err)
	}
	// Readers load the engine pointer while InstallPolicy re-installs (the
	// tenant still has no history, so the swap path stays legal); run under
	// -race this pins the atomic engine handoff.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := reg.Authorize("p", workload.ChurnGrant(0, 8, 8)); err != nil {
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := reg.InstallPolicy("p", workload.ChurnPolicy(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCacheStatsAndOptions(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()
	q := workload.ChurnGrant(0, 16, 16)
	// Four sights: doorkeeper pass, intern + cache fill, two hits.
	for i := 0; i < 4; i++ {
		if res, err := reg.Authorize("t", q); err != nil || !res.OK {
			t.Fatalf("authorize %d: err=%v ok=%v", i, err, res.OK)
		}
	}
	st, err := reg.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Slots == 0 || st.Cache.Stores == 0 || st.Cache.Hits < 2 {
		t.Fatalf("cache counters not surfaced: %+v", st.Cache)
	}

	// A registry with caching disabled never counts cache traffic.
	off := churnRegistry(t, t.TempDir(), Options{CacheSlots: -1})
	defer off.Close()
	for i := 0; i < 3; i++ {
		if res, err := off.Authorize("t", q); err != nil || !res.OK {
			t.Fatalf("uncached authorize %d: err=%v ok=%v", i, err, res.OK)
		}
	}
	st, err = off.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Slots != 0 || st.Cache.Hits != 0 || st.Cache.Stores != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st.Cache)
	}
}

func TestAuthorizeBatchIntoReuse(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{})
	defer reg.Close()
	cmds := make([]command.Command, 8)
	for i := range cmds {
		cmds[i] = workload.ChurnGrant(i, 16, 16)
	}
	buf := make([]engine.AuthzResult, 0, len(cmds))
	got, _, err := reg.AuthorizeBatchInto("t", cmds, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AuthorizeBatchInto did not reuse the buffer")
	}
	ref, _, err := reg.AuthorizeBatchInto("t", cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cmds {
		if got[i].OK != ref[i].OK {
			t.Fatalf("cmd %d: into %v, fresh %v", i, got[i].OK, ref[i].OK)
		}
	}
}

// TestEvictionReopenNeverReadsBehindAnAck pins the eviction/reopen race: an
// LRU victim is unlinked under the shard lock but compacted and closed
// outside it, so a concurrent acquire of the same name must not reopen the
// directory mid-shutdown — it would recover a half-compacted store and serve
// a generation behind a write the registry already acknowledged.
func TestEvictionReopenNeverReadsBehindAnAck(t *testing.T) {
	reg := churnRegistry(t, t.TempDir(), Options{Shards: 1, MaxResident: 1, CompactEvery: -1})
	defer reg.Close()
	for i := 0; i < 100; i++ {
		_, acked, err := reg.SubmitBatch("a", []command.Command{workload.ChurnGrant(i%256, 16, 16)})
		if err != nil {
			t.Fatal(err)
		}
		// Touching b evicts a (it has records to compact); reads of a race
		// that shutdown until b's read returns.
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := reg.Stats("b"); err != nil {
				t.Error(err)
			}
		}()
		var st Stats
		for racing := true; racing; {
			select {
			case <-done:
				racing = false
			default:
			}
			if st, err = reg.Stats("a"); err != nil {
				t.Fatalf("iteration %d: read of a: %v", i, err)
			}
			if st.Generation < acked {
				break
			}
		}
		if st.Generation < acked {
			t.Fatalf("iteration %d: a served generation %d behind acknowledged %d", i, st.Generation, acked)
		}
	}
}
