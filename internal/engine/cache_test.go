package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/decision"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/workload"
)

// equivPolicy builds a policy whose admin can both grant and revoke a set of
// UA edges, plus enough RH/PA structure (including nested administrative
// privileges) to exercise every rule of the refined ordering. It returns the
// toggle commands (all authorized for "admin") and a query battery of
// commands for "alice" whose answers depend on the toggled edges.
func equivPolicy() (*policy.Policy, []command.Command, []command.Command) {
	p := policy.New()
	p.Assign("admin", "radmin")
	p.AddInherit("c0", "c1")
	p.AddInherit("c1", "c2")
	alice, bob := model.User("alice"), model.User("bob")
	c0, c1, c2 := model.Role("c0"), model.Role("c1"), model.Role("c2")
	var toggles []command.Command
	for _, r := range []model.Entity{c0, c1, c2} {
		mustPA(p, "radmin", model.Grant(alice, r))
		mustPA(p, "radmin", model.Revoke(alice, r))
		toggles = append(toggles,
			command.Grant("admin", alice, r),
			command.Revoke("admin", alice, r))
	}
	// Privileges reachable through the chain: direct, role-role, and nested
	// (rule 3 of Definition 8 needs privilege-valued destinations).
	nested := model.Grant(c2, model.Grant(bob, c2))
	mustPA(p, "c0", model.Grant(bob, c0))
	mustPA(p, "c1", model.Grant(bob, c2))
	mustPA(p, "c1", nested)
	mustPA(p, "c2", model.Grant(c1, c2))
	battery := []command.Command{
		command.Grant("alice", bob, c0),
		command.Grant("alice", bob, c1), // never granted anywhere
		command.Grant("alice", bob, c2),
		command.Grant("alice", c1, c2),
		// Authorized (refined, via the nested privilege) only when alice
		// reaches c1: the command's privilege is exactly ¤(c2, ¤(bob, c2)).
		command.Grant("alice", c2, model.Grant(bob, c2)),
		command.Revoke("alice", bob, c2),
		command.Grant("admin", alice, c0),
		command.Revoke("admin", alice, c1),
	}
	return p, toggles, battery
}

func mustPA(p *policy.Policy, role string, priv model.Privilege) {
	if _, err := p.GrantPrivilege(role, priv); err != nil {
		panic(err)
	}
}

// TestCachedAuthorizeEquivalence is the tentpole correctness harness: under
// random grant/revoke churn, every cached decision (first and repeated
// query, so both the fill and the hit path are exercised) must match a
// fresh authorizer built from scratch on the snapshot's policy.
//
// In strict mode the match is bit-identical: same verdict, same
// justification (Definition 5's justification is the command's own
// privilege, which is canonical). In refined mode the verdict must be
// identical, and the justification must be a *valid* witness — held by the
// actor and at least as strong as the target. It need not be the same
// witness a cold decider would pick: a positive entry that (soundly, by
// monotonicity) survived an additive delta keeps the witness found when it
// was computed, while a cold decider may find an earlier-ordered one that
// churn has since created.
func TestCachedAuthorizeEquivalence(t *testing.T) {
	for _, mode := range []Mode{Strict, Refined} {
		t.Run(mode.String(), func(t *testing.T) {
			pol, toggles, battery := equivPolicy()
			e := New(pol, mode)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 200; step++ {
				e.Submit(toggles[rng.Intn(len(toggles))])
				s := e.Snapshot()
				ref := core.NewDecider(s.Policy().Clone())
				fresh := freshAuthorizer(s.Policy().Clone(), mode)
				for i, c := range battery {
					firstJust, firstOK := s.Authorize(c)
					hitJust, hitOK := s.Authorize(c)
					wantJust, wantOK := fresh.Authorize(s.Policy(), c)
					if firstOK != wantOK {
						t.Fatalf("step %d query %d (%s): cached verdict %v != fresh %v",
							step, i, c, firstOK, wantOK)
					}
					if hitOK != firstOK {
						t.Fatalf("step %d query %d (%s): cache hit verdict %v != first %v",
							step, i, c, hitOK, firstOK)
					}
					if mode == Strict {
						if !model.SamePrivilege(firstJust, wantJust) || !model.SamePrivilege(hitJust, wantJust) {
							t.Fatalf("step %d query %d (%s): justification %v / %v != fresh %v",
								step, i, c, firstJust, hitJust, wantJust)
						}
					} else if firstOK {
						target, err := c.Privilege()
						if err != nil {
							t.Fatalf("step %d query %d: %v", step, i, err)
						}
						for _, just := range []model.Privilege{firstJust, hitJust} {
							if !s.Policy().Reaches(model.User(c.Actor), just) {
								t.Fatalf("step %d query %d (%s): witness %v not held by %s",
									step, i, c, just, c.Actor)
							}
							if !ref.Weaker(just, target) {
								t.Fatalf("step %d query %d (%s): witness %v not stronger than %v",
									step, i, c, just, target)
							}
						}
					}
				}
				s.Close()
			}
			st := e.CacheStats()
			if st.Hits == 0 || st.Stores == 0 {
				t.Fatalf("harness never exercised the cache: %+v", st)
			}
		})
	}
}

// freshAuthorizer builds the from-scratch reference for a mode. The clone
// (not the snapshot's live policy) backs the decider so the reference shares
// no caches with the engine; Authorize is still called with the snapshot
// policy, which the authorizers handle by building a throwaway decider.
func freshAuthorizer(p *policy.Policy, mode Mode) command.Authorizer {
	if mode == Refined {
		return core.NewRefinedAuthorizer(p)
	}
	return core.NewStrictAuthorizer(p)
}

// TestCacheInvalidationOnRevoke pins the invalidation rules: a cached
// positive must not survive the removal that breaks its justification, and a
// cached negative must not survive the grant that flips it.
func TestCacheInvalidationOnRevoke(t *testing.T) {
	pol, _, _ := equivPolicy()
	e := New(pol, Strict)
	alice, bob := model.User("alice"), model.User("bob")
	c0 := model.Role("c0")
	grant := command.Grant("admin", alice, c0)
	revoke := command.Revoke("admin", alice, c0)
	query := command.Grant("alice", bob, c0)

	authorize := func(want bool, when string) {
		t.Helper()
		s := e.Snapshot()
		defer s.Close()
		for i := 0; i < 2; i++ { // miss then hit
			if _, got := s.Authorize(query); got != want {
				t.Fatalf("%s (pass %d): authorize = %v, want %v", when, i, got, want)
			}
		}
	}

	authorize(false, "initially")
	if res := e.Submit(grant); res.Outcome != command.Applied {
		t.Fatalf("grant: %v", res.Outcome)
	}
	authorize(true, "after grant (stale negative must drop)")
	if res := e.Submit(revoke); res.Outcome != command.Applied {
		t.Fatalf("revoke: %v", res.Outcome)
	}
	authorize(false, "after revoke (stale positive must drop)")
	e.Submit(grant)
	authorize(true, "after re-grant")

	// An old snapshot taken before later churn keeps answering at its own
	// generation even though newer verdicts entered the shared cache.
	old := e.Snapshot()
	defer old.Close()
	e.Submit(revoke)
	if _, ok := old.Authorize(query); !ok {
		t.Fatal("old snapshot must still see the pre-revoke state")
	}
	cur := e.Snapshot()
	defer cur.Close()
	if _, ok := cur.Authorize(query); ok {
		t.Fatal("current snapshot must see the revoke")
	}
}

// TestCachedAuthorizePositiveSurvivesGrants pins the monotone half of the
// invalidation rules: additive churn must not evict-by-invalidation a
// cached positive (its generation stays >= posFloor), so a hot allowed
// command keeps hitting the cache across unrelated grants.
func TestCachedAuthorizePositiveSurvivesGrants(t *testing.T) {
	const roles, users = 64, 64
	e := New(workload.ChurnPolicy(roles, users), Refined)
	q := workload.ChurnGrant(0, users, roles)
	s := e.Snapshot()
	// Three sights: doorkeeper pass, intern + cache fill, first hit.
	for i := 0; i < 3; i++ {
		if _, ok := s.Authorize(q); !ok {
			t.Fatal("churn query denied")
		}
	}
	s.Close()
	base := e.CacheStats()
	for i := 1; i <= 32; i++ {
		if res := e.Submit(workload.ChurnGrant(i, users, roles)); res.Outcome != command.Applied {
			t.Fatalf("churn grant %d: %v", i, res.Outcome)
		}
		s := e.Snapshot()
		if _, ok := s.Authorize(q); !ok {
			t.Fatalf("hot query denied after grant %d", i)
		}
		s.Close()
	}
	st := e.CacheStats()
	if got := st.Hits - base.Hits; got < 32 {
		t.Fatalf("hot positive only hit %d times across 32 additive deltas (stats %+v)", got, st)
	}
}

// TestAuthorizeBatchInto verifies buffer reuse and agreement with the
// single-query path.
func TestAuthorizeBatchInto(t *testing.T) {
	pol, toggles, battery := equivPolicy()
	e := New(pol, Refined)
	for _, c := range toggles[:3] {
		e.Submit(c)
	}
	s := e.Snapshot()
	defer s.Close()
	buf := make([]AuthzResult, 0, len(battery))
	got := s.AuthorizeBatchInto(battery, buf)
	if &got[0] != &buf[:1][0] {
		t.Fatal("AuthorizeBatchInto did not reuse the provided buffer")
	}
	again := s.AuthorizeBatchInto(battery, nil)
	for i, c := range battery {
		just, ok := s.Authorize(c)
		if got[i].OK != ok || !model.SamePrivilege(got[i].Justification, just) {
			t.Fatalf("batch result %d (%s) = (%v,%v), single = (%v,%v)",
				i, c, got[i].Justification, got[i].OK, just, ok)
		}
		if again[i] != got[i] {
			t.Fatalf("batch rerun diverged at %d", i)
		}
	}
	small := s.AuthorizeBatchInto(battery, make([]AuthzResult, 0, 1))
	if len(small) != len(battery) {
		t.Fatalf("undersized buffer: got %d results", len(small))
	}
}

// TestDisabledEngineRecordsNoCacheTraffic: an engine built with the verdict
// store off decides every query through the kernel and counts nothing, and
// the same policy with it on hits.
func TestDisabledEngineRecordsNoCacheTraffic(t *testing.T) {
	pol, toggles, battery := equivPolicy()
	for _, cached := range []bool{false, true} {
		e := NewAt(pol.Clone(), Strict, 0, cached)
		e.Submit(toggles[0])
		s := e.Snapshot()
		for i := 0; i < 3; i++ {
			for _, c := range battery {
				s.Authorize(c)
			}
		}
		s.Close()
		st := e.CacheStats()
		if !cached && st != (decision.Stats{}) {
			t.Fatalf("disabled engine recorded cache traffic: %+v", st)
		}
		if cached && (st.Hits == 0 || st.Stores == 0 || st.Slots != len(battery)) {
			t.Fatalf("enabled engine: %+v, want hits, stores and %d slots", st, len(battery))
		}
	}
}

// TestEveryInternedCommandKeepsItsVerdict: an engine that has interned more
// distinct commands than any fixed table held (8 192 slots) answers every
// one of them from cache on a repeat pass at the same generation.
func TestEveryInternedCommandKeepsItsVerdict(t *testing.T) {
	const roles, users, n = 160, 128, 20000
	e := New(workload.ChurnPolicy(roles, users), Refined)
	cmds := workload.CommandSlab(n, users, roles)
	s := e.Snapshot()
	defer s.Close()
	// Sights per block of commands: the doorkeeper's mark, then intern and
	// store. A third covers the marks of a block the doorkeeper aged within.
	for off := 0; off < n; off += 1000 {
		for pass := 0; pass < 3; pass++ {
			for _, c := range cmds[off : off+1000] {
				s.Authorize(c)
			}
		}
	}
	if interned, _ := e.interner.Len(); interned != n {
		t.Fatalf("%d commands interned, want %d", interned, n)
	}
	before := e.CacheStats()
	for _, c := range cmds {
		s.Authorize(c)
	}
	st := e.CacheStats()
	if hits := st.Hits - before.Hits; hits != n || st.Misses != before.Misses {
		t.Fatalf("repeat pass hit %d of %d (stats before %+v, after %+v)", hits, n, before, st)
	}
}

// TestNewBytes pins what engine.New(workload.ChurnPolicy(256, 64)) allocates,
// the fixture's policy included, at 250 KB: about 410 KB while every engine
// carried a fixed 8 192-slot verdict table (196 KB); the verdicts now live in
// the interned commands, so an engine pays only for what it interns.
func TestNewBytes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc measurement")
	}
	const runs = 20
	New(workload.ChurnPolicy(256, 64), Refined)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		New(workload.ChurnPolicy(256, 64), Refined)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 250_000 {
		t.Fatalf("engine.New on the 256×64 fixture allocates %d bytes, want at most 250 000", perOp)
	}
}

// TestConcurrentCachedAuthorizeChurn is the race-detector harness for the
// decision cache and the replicas' closures: one writer toggles the UA edge
// that an observed command's authorization hinges on, while readers
// authorize it through the cache. Each reader asserts (a) snapshot
// generations are monotone and (b) the verdict matches the exact policy
// state its generation implies — the edge is present iff the generation is
// odd — so a stale positive after a removal (or stale negative after a
// grant) fails the test deterministically. Every toggle advances a closure,
// by a rebuild after each revoke, and only the writer may do it: a reader
// that did would race with the others under -race.
func TestConcurrentCachedAuthorizeChurn(t *testing.T) {
	for _, mode := range []Mode{Strict, Refined} {
		t.Run(mode.String(), func(t *testing.T) { concurrentChurn(t, mode) })
	}
}

func concurrentChurn(t *testing.T, mode Mode) {
	pol, _, _ := equivPolicy()
	e := New(pol, mode)
	alice, bob := model.User("alice"), model.User("bob")
	c0 := model.Role("c0")
	grant := command.Grant("admin", alice, c0)
	revoke := command.Revoke("admin", alice, c0)
	query := command.Grant("alice", bob, c0)
	const (
		readers = 4
		toggles = 300
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				gen := s.Generation()
				_, ok := s.Authorize(query)
				s.Close()
				if gen < lastGen {
					errc <- fmt.Errorf("generation went backwards: %d -> %d", lastGen, gen)
					return
				}
				lastGen = gen
				if want := gen%2 == 1; ok != want {
					errc <- fmt.Errorf("gen %d: authorize = %v, want %v (stale verdict)", gen, ok, want)
					return
				}
			}
		}()
	}
	for i := 0; i < toggles; i++ {
		c := grant
		if i%2 == 1 {
			c = revoke
		}
		if res := e.Submit(c); res.Outcome != command.Applied {
			t.Fatalf("toggle %d: %v", i, res.Outcome)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestFirstMissAfterRevokeBuildsNoClosure: the writer brings a replica's
// closure up to date before it publishes the replica, so the first reader
// of the snapshot a revoke published decides on it as it is. A reader that
// rebuilt it would allocate at least the closure's rows, here measured as
// what building the same policy's closure allocates.
func TestFirstMissAfterRevokeBuildsNoClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	const roles, users = 64, 2048
	pol := workload.ChurnPolicy(roles, users)
	for i := 1; i <= 2; i++ {
		c := workload.ChurnGrant(i, users, roles)
		mustPA(pol, "churnadmins", model.Revoke(c.From.(model.Entity), c.To))
	}
	e := New(pol, Refined)
	q := workload.ChurnGrant(0, users, roles)
	s := e.Snapshot()
	for i := 0; i < 3; i++ { // intern it and store its verdict
		if _, ok := s.Authorize(q); !ok {
			t.Fatal("churn query denied")
		}
	}
	s.Close()
	// Two grant+revoke pairs, so both replicas have published a revoke.
	for i := 1; i <= 2; i++ {
		for _, op := range []model.Op{model.OpGrant, model.OpRevoke} {
			c := workload.ChurnGrant(i, users, roles)
			c.Op = op
			if res := e.Submit(c); res.Outcome != command.Applied {
				t.Fatalf("churn %v %d: %v", op, i, res.Outcome)
			}
		}
	}
	s = e.Snapshot()
	defer s.Close()
	build := allocated(func() { core.NewReach(s.Policy()).Sync() })
	misses := e.CacheStats().Misses
	miss := allocated(func() {
		if _, ok := s.Authorize(q); !ok {
			t.Fatal("churn query denied after the revoke")
		}
	})
	if e.CacheStats().Misses != misses+1 {
		t.Fatal("the query after a revoke hit a stored verdict")
	}
	t.Logf("first miss after a revoke allocates %d bytes; a closure build %d", miss, build)
	if miss >= build/4 {
		t.Fatalf("first miss after a revoke allocates %d bytes, a closure build %d", miss, build)
	}
}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
