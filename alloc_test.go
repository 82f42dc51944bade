package adminrefine

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/replication"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// TestAuthorizeAllocs pins the zero-allocation contract of every in-process
// authorize path the service is built on: once the interner, the commands'
// vertex resolutions and pooled deciders are warm, a decision allocates
// nothing — on a decision-cache hit, through the full uncached Definition-5
// and §4.1 procedures, on a command's first sight (uninterned: the doorkeeper says
// "not yet"), through the tenant registry (single and batched), and on a
// caught-up follower's replayed engine. The one row with a large budget,
// registry/cold-open, pins what opening a non-resident tenant allocates. Sibling pins: internal/session
// TestCheckAllocs (access checks) and internal/wire TestDrainAllocs (the
// request core under a wire drain).
func TestAuthorizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	const roles, users = 256, 256
	slab := workload.CommandSlab(4096, users, roles)

	// snapshotPath measures Snapshot + Authorize + Close over cmds, after two
	// warm passes: the first marks every command in the interner doorkeeper,
	// the second admits and resolves it (and fills the cache when enabled).
	snapshotPath := func(t *testing.T, e *engine.Engine, cmds []command.Command) func() {
		s := e.Snapshot()
		for pass := 0; pass < 2; pass++ {
			for _, c := range cmds {
				if _, ok := s.Authorize(c); !ok {
					t.Fatal("warm query denied")
				}
			}
		}
		s.Close()
		i := 0
		return func() {
			s := e.Snapshot()
			_, ok := s.Authorize(cmds[i%len(cmds)])
			s.Close()
			i++
			if !ok {
				t.Fatal("query denied")
			}
		}
	}
	// registryBatch measures one k-command AuthorizeBatchInto against a
	// resident tenant into a reused result buffer — the serving path.
	registryBatch := func(t *testing.T, reg *tenant.Registry, name string, cmds []command.Command, k int) func() {
		out := make([]engine.AuthzResult, 0, k)
		batch := func(off int) {
			results, _, err := reg.AuthorizeBatchInto(name, cmds[off:off+k], out[:0])
			if err != nil {
				t.Fatal(err)
			}
			for j, res := range results {
				if !res.OK {
					t.Fatalf("query %d denied", off+j)
				}
			}
		}
		for pass := 0; pass < 2; pass++ {
			for off := 0; off+k <= len(cmds); off += k {
				batch(off)
			}
		}
		i := 0
		return func() {
			batch(i * k % (len(cmds) - k))
			i++
		}
	}
	// multiTenant stands up a disk-backed registry of resident churn tenants
	// and returns it with one tenant's query slab.
	multiTenant := func(t *testing.T) (*tenant.Registry, string, []command.Command) {
		cfg := workload.DefaultMultiTenant(42)
		cfg.Tenants = 4
		cfg.SubmitFrac = 0
		g := workload.NewMultiTenantGen(cfg)
		reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined, Bootstrap: g.Bootstrap})
		t.Cleanup(func() { reg.Close() })
		name, cmds := g.QueryBatch(1024)
		return reg, name, cmds
	}

	// firstSight measures Authorize on a command the warm engine has never
	// seen, a fresh one per run: decided uninterned, on vertex ids.
	firstSight := func(t *testing.T, odd int) func() {
		e := engine.New(workload.ChurnPolicy(roles, users), engine.Refined)
		snapshotPath(t, e, slab[:64])
		fresh := firstSightSlab(len(slab), 1024, users, roles)
		s := e.Snapshot()
		t.Cleanup(s.Close)
		i := odd
		return func() {
			if _, ok := s.Authorize(fresh[i]); ok != (odd == 0) {
				t.Fatalf("fresh command %d: allowed=%v", i, ok)
			}
			i += 2
		}
	}

	cases := []struct {
		name  string
		setup func(t *testing.T) func()
		// budget is the allocations per op the row tolerates, with its reason.
		budget float64
	}{
		{"engine/cache-hit", func(t *testing.T) func() {
			return snapshotPath(t, engine.New(workload.ChurnPolicy(roles, users), engine.Refined), slab)
		}, 0},
		{"engine/strict-uncached", func(t *testing.T) func() {
			// The churn fixture's one strictly-held privilege (the admin's
			// ¤(member, c0000)): the Definition-5 allow path, no cache.
			e := engine.NewAt(workload.ChurnPolicy(roles, users), engine.Strict, 0, false)
			probe := command.Grant("churnadmin", model.Role("member"), model.Role("c0000"))
			return snapshotPath(t, e, []command.Command{probe})
		}, 0},
		{"engine/refined-uncached", func(t *testing.T) func() {
			e := engine.NewAt(workload.ChurnPolicy(roles, users), engine.Refined, 0, false)
			return snapshotPath(t, e, slab)
		}, 0},
		{"engine/first-sight-allowed", func(t *testing.T) func() { return firstSight(t, 0) }, 0},
		{"engine/first-sight-denied", func(t *testing.T) func() { return firstSight(t, 1) }, 0},
		{"registry/single", func(t *testing.T) func() {
			reg, name, cmds := multiTenant(t)
			one := func(i int) {
				res, err := reg.Authorize(name, cmds[i%len(cmds)])
				if err != nil || !res.OK {
					t.Fatalf("authorize: err=%v ok=%v", err, res.OK)
				}
			}
			for i := 0; i < 2*len(cmds); i++ {
				one(i)
			}
			i := 0
			return func() { one(i); i++ }
		}, 0},
		{"registry/batch=32", func(t *testing.T) func() {
			reg, name, cmds := multiTenant(t)
			return registryBatch(t, reg, name, cmds, 32)
		}, 0},
		{"registry/first-sight-batch=512", func(t *testing.T) func() {
			// The serving path of a cold tenant's bulk read: 512 commands the
			// tenant has never seen, through the registry into a reused
			// buffer, a fresh batch per run.
			reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { reg.Close() })
			if err := reg.InstallPolicy("t", workload.ChurnPolicy(roles, users)); err != nil {
				t.Fatal(err)
			}
			const k = 512
			fresh := firstSightSlab(0, 2*roles*users, users, roles)
			out := make([]engine.AuthzResult, 0, k)
			off := 0
			return func() {
				results, _, err := reg.AuthorizeBatchInto("t", fresh[off:off+k], out[:0])
				if err != nil {
					t.Fatal(err)
				}
				for j, res := range results {
					if res.OK != (j%2 == 0) {
						t.Fatalf("fresh command %d: allowed=%v", off+j, res.OK)
					}
				}
				off += k
			}
			// Not 0: the doorkeeper's Bloom filter takes a few first sights for
			// second ones (under 1.5 % by its aging rule, 8 of 512), and
			// interning a command allocates about 6 times. The string-building
			// path this row replaced cost 6 per command, 3072 per batch.
		}, 48},
		{"registry/cold-open", func(t *testing.T) func() {
			// What a request for a non-resident tenant allocates before its
			// answer, on BenchmarkColdOpen's fixture (256 roles × 64 users):
			// evict, then read the snapshot, scan the WAL, build the engine and
			// one closure, decide.
			reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { reg.Close() })
			if err := reg.InstallPolicy("t", workload.ChurnPolicy(256, 64)); err != nil {
				t.Fatal(err)
			}
			c := workload.ChurnGrant(0, 64, 256)
			return func() {
				if !reg.Evict("t") {
					t.Fatal("tenant not evicted")
				}
				if res, err := reg.Authorize("t", c); err != nil || !res.OK {
					t.Fatalf("authorize: ok=%v err=%v", res.OK, err)
				}
			}
			// Not 0: a vertex and a closure are built per open. 3 398 when the snapshot was JSON and the policy kept maps
			// beside its graph; about 450 now, the boxed vertices two thirds of
			// them. No verdict table is among them: verdicts live in the
			// interned commands.
		}, 1000},
		{"follower/batch=32", func(t *testing.T) func() {
			// A follower replays the primary's WAL into a plain engine, so
			// its reads must cost what they cost anywhere else.
			const writes = 64
			prim := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { prim.Close() })
			if err := prim.InstallPolicy("t", workload.ChurnPolicy(roles, users)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < writes; i++ {
				if res, err := prim.Submit("t", workload.ChurnGrant(i, users, roles)); err != nil || res.Outcome != command.Applied {
					t.Fatalf("churn prefix %d: outcome=%v err=%v", i, res.Outcome, err)
				}
			}
			mux := http.NewServeMux()
			replication.NewSource(prim, replication.SourceOptions{}).Register(mux)
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)
			folReg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
			t.Cleanup(func() { folReg.Close() })
			// A long PollWait keeps the idle pull loop off the allocator
			// while the reads are measured.
			fol := replication.NewFollower(folReg, replication.FollowerOptions{
				Upstream: ts.URL,
				PollWait: 10 * time.Second,
				Backoff:  20 * time.Millisecond,
			})
			t.Cleanup(fol.Close)
			if err := fol.Ensure("t"); err != nil {
				t.Fatal(err)
			}
			if gen, ok, err := folReg.WaitGeneration("t", writes, 30*time.Second); err != nil || !ok {
				t.Fatalf("follower stuck at generation %d (err %v)", gen, err)
			}
			// Every follower read goes through Ensure first
			// (service.Core.EnsureReplica); for a tenant in sync that is two
			// atomics, not a lock, a closure and a timer.
			batch := registryBatch(t, folReg, "t", slab, 32)
			return func() {
				if err := fol.Ensure("t"); err != nil {
					t.Fatal(err)
				}
				batch()
			}
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.setup(t)
			if allocs := testing.AllocsPerRun(200, op); allocs > tc.budget {
				t.Fatalf("steady-state %s allocates %v per op, want at most %v", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestColdBatchBytes pins the bytes of BenchmarkColdBatch's op — evict, then
// one 512-command batch with 8 recurring commands — at 300 KB: the
// interner's entry chunks grow with what the open interns, so the op pays
// for its graph, closure and doorkeeper (~198 KB), not for thousands of
// empty entries.
func TestColdBatchBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	reg := tenant.New(tenant.Options{Dir: t.TempDir(), Mode: engine.Refined})
	t.Cleanup(func() { reg.Close() })
	if err := reg.InstallPolicy("t", workload.ChurnPolicy(256, 64)); err != nil {
		t.Fatal(err)
	}
	op := coldBatchOp(t.Fatalf, reg)
	op()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 300_000 {
		t.Fatalf("evict + cold batch allocates %d bytes per op, want at most 300 000", perOp)
	}
}

// TestInternedCommandBytes pins what interned commands keep alive in a
// refined engine: 4 096 commands on the bulk-cold fixture (256 roles × 64
// users), interned while two readers decide them concurrently, retain at
// most 1 MB, engine, policy and closures included. A command's vertex
// resolutions are kept once per engine, in its FPInfo; while every decider
// kept its own table of them and every command a boxed privilege, the same
// engine retained 1.3–1.7 MB, by how far the readers' batches overlapped.
func TestInternedCommandBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	const roles, users, n, k = 256, 64, 4096, 256
	slab := firstSightSlab(0, n, users, roles)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := engine.New(workload.ChurnPolicy(roles, users), engine.Refined)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]engine.AuthzResult, 0, k)
			<-start
			// Two passes: the doorkeeper interns a command on its second sight.
			for pass := 0; pass < 2; pass++ {
				for off := 0; off < n; off += k {
					s := e.Snapshot()
					out = s.AuthorizeBatchInto(slab[off:off+k], out[:0])
					s.Close()
					for j, res := range out {
						if res.OK != (j%2 == 0) {
							t.Errorf("command %d: allowed=%v", off+j, res.OK)
							return
						}
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := e.CacheStats().Slots; got != n {
		t.Fatalf("%d commands interned, want %d", got, n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained %d bytes, %d per command", kept, kept/n)
	if kept > 1<<20 {
		t.Fatalf("an engine with %d interned commands retains %d bytes, want at most %d", n, kept, 1<<20)
	}
}
