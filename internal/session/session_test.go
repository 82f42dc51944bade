package session

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/decision"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// hospitalFixture is Figure 1 plus a root administrator holding the strict
// grant/revoke privileges over Diana's assignments, so tests can mutate UA
// through the transition function (Definition 5 requires held privileges).
func hospitalFixture(t *testing.T) *policy.Policy {
	t.Helper()
	p := policy.Figure1()
	p.Assign("root", "admins")
	// eve holds exactly one path to her privileges (unlike diana, who
	// reaches nurse through staff as well): the clean revocation probe.
	p.Assign("eve", policy.RoleNurse)
	for _, user := range []string{policy.UserDiana, "eve"} {
		for _, role := range []string{policy.RoleNurse, policy.RoleStaff} {
			for _, priv := range []model.Privilege{
				model.Grant(model.User(user), model.Role(role)),
				model.Revoke(model.User(user), model.Role(role)),
			} {
				if _, err := p.GrantPrivilege("admins", priv); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return p
}

// oracle recomputes the check from first principles: some activated role
// must be activatable and reach the privilege.
func oracle(pol *policy.Policy, user string, roles []string, perm model.Privilege) bool {
	for _, r := range roles {
		if pol.CanActivate(user, r) && pol.Reaches(model.Role(r), perm) {
			return true
		}
	}
	return false
}

func checkAgainstOracle(t *testing.T, e *engine.Engine, tbl *Table, s *Session, perms []model.UserPrivilege) {
	t.Helper()
	snap := e.Snapshot()
	defer snap.Close()
	for _, perm := range perms {
		got, err := tbl.Check(snap, s.ID, perm)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(snap.Policy(), s.User, s.Roles(), perm)
		if got != want {
			t.Fatalf("Check(%s) = %v, oracle %v (roles %v, gen %d)", perm, got, want, s.Roles(), snap.Generation())
		}
	}
}

var probePerms = []model.UserPrivilege{
	policy.PermReadT1, policy.PermReadT2, policy.PermWriteT3,
	policy.PermPrntBlack, policy.PermPrntColor,
	model.Perm("no", "such"),
}

func TestSessionLifecycle(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	defer snap.Close()

	if _, err := tbl.Create(snap, "", nil); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleSO}); err == nil {
		t.Fatal("unactivatable role accepted at create")
	}
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Roles(); len(got) != 1 || got[0] != policy.RoleNurse {
		t.Fatalf("roles = %v", got)
	}
	if err := tbl.Activate(snap, s.ID, policy.RoleSO); err == nil {
		t.Fatal("diana activated SO")
	}
	if err := tbl.Activate(snap, s.ID, policy.RoleStaff); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Deactivate(s.ID, policy.RoleSO); err == nil {
		t.Fatal("deactivated an inactive role")
	}
	if err := tbl.Deactivate(s.ID, policy.RoleStaff); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Check(snap, s.ID+99, policy.PermReadT1); err == nil {
		t.Fatal("check on unknown session")
	}
	// The first check compiles the view, the second is answered from it:
	// /stats' cache block counts checks answered without a compile as hits
	// and compiles as misses, and stores nothing.
	for i := 0; i < 2; i++ {
		if ok, err := tbl.Check(snap, s.ID, policy.PermReadT1); err != nil || !ok {
			t.Fatalf("nurse cannot read t1: %v", err)
		}
	}
	want := Stats{Sessions: 1, Checks: 2, Compiles: 1, Cache: decision.Stats{Hits: 1, Misses: 1}}
	if st := tbl.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if err := tbl.Drop(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Drop(s.ID); err == nil {
		t.Fatal("double drop")
	}
}

// formerCacheSettings name the subtests of TestCheckTracksPolicyChurn and
// TestCheckAllocs after the two verdict-cache settings the table had before
// the cache was deleted: the default (0) and off (-1). Both now build the
// one table there is, NewTable(Options{}); the names stay so each subtest
// keeps its history.
var formerCacheSettings = []string{"cacheSlots=0", "cacheSlots=-1"}

// TestCheckTracksPolicyChurn drives activations, grants and revocations and
// asserts Check stays verdict-identical to the recomputed oracle after every
// mutation — the floors/bitset invalidation contract.
func TestCheckTracksPolicyChurn(t *testing.T) {
	for _, name := range formerCacheSettings {
		t.Run(name, checkTracksPolicyChurn)
	}
}

func checkTracksPolicyChurn(t *testing.T) {
	pol := hospitalFixture(t)
	// fresh is no vertex until root grants it to nurse.
	fresh := model.Perm("audit", "t9")
	if _, err := pol.GrantPrivilege("admins", model.Grant(model.Role(policy.RoleNurse), fresh)); err != nil {
		t.Fatal(err)
	}
	e := engine.New(pol, engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	snap.Close()
	if err != nil {
		t.Fatal(err)
	}

	checkAgainstOracle(t, e, tbl, s, probePerms)
	// Repeat on the warm path (bitset hits).
	checkAgainstOracle(t, e, tbl, s, probePerms)

	// Activate staff: the session gains write t3.
	snap = e.Snapshot()
	if err := tbl.Activate(snap, s.ID, policy.RoleStaff); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	checkAgainstOracle(t, e, tbl, s, probePerms)

	// Revoke diana's staff assignment through the transition function: the
	// activated role silently stops contributing.
	res := e.Submit(command.Revoke("root", model.User(policy.UserDiana), model.Role(policy.RoleStaff)))
	if res.Outcome != command.Applied {
		t.Fatalf("revoke: %v", res.Outcome)
	}
	checkAgainstOracle(t, e, tbl, s, probePerms)

	// Re-grant it: positive verdicts must reappear (negFloor moved).
	res = e.Submit(command.Grant("root", model.User(policy.UserDiana), model.Role(policy.RoleStaff)))
	if res.Outcome != command.Applied {
		t.Fatalf("grant: %v", res.Outcome)
	}
	checkAgainstOracle(t, e, tbl, s, probePerms)

	// Deactivate staff again: the view compiled under the old roles must not
	// leak.
	if err := tbl.Deactivate(s.ID, policy.RoleStaff); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, e, tbl, s, probePerms)

	// A privilege with no vertex is denied, and the miss is remembered for
	// this policy instance; once a grant creates the vertex under the active
	// nurse role, the same instance must allow it.
	snap = e.Snapshot()
	first := snap.Policy()
	if ok, err := tbl.Check(snap, s.ID, fresh); err != nil || ok {
		t.Fatalf("check of a privilege with no vertex: %v %v", ok, err)
	}
	snap.Close()
	res = e.Submit(command.Grant("root", model.Role(policy.RoleNurse), fresh))
	if res.Outcome != command.Applied {
		t.Fatalf("grant %s: %v", fresh, res.Outcome)
	}
	// Submit unrelated changes (eve's assignment) until the engine publishes
	// the first instance again, with no check in between.
	for i := 0; ; i++ {
		snap = e.Snapshot()
		if snap.Policy() == first {
			break
		}
		snap.Close()
		if i == 4 {
			t.Fatal("the engine never republished the first policy instance")
		}
		op := command.Revoke
		if i%2 == 1 {
			op = command.Grant
		}
		if res := e.Submit(op("root", model.User("eve"), model.Role(policy.RoleNurse))); res.Outcome != command.Applied {
			t.Fatalf("churn %d: %v", i, res.Outcome)
		}
	}
	ok, err := tbl.Check(snap, s.ID, fresh)
	snap.Close()
	if err != nil || !ok {
		t.Fatalf("check after the grant created the vertex: %v %v", ok, err)
	}
	checkAgainstOracle(t, e, tbl, s, append(probePerms, fresh))
}

// TestViewsSurviveReplicaAlternation: an engine publishes its two replicas
// in turn, and grants keep every allowed bit valid, so a session checking an
// allowed privilege after each of a run of grants compiles once per replica,
// not once per publish.
func TestViewsSurviveReplicaAlternation(t *testing.T) {
	pol := hospitalFixture(t)
	const grants = 8
	for i := 0; i < grants; i++ {
		if _, err := pol.GrantPrivilege("admins", model.Grant(model.User(fmt.Sprintf("u%d", i)), model.Role(policy.RoleNurse))); err != nil {
			t.Fatal(err)
		}
	}
	e := engine.New(pol, engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	snap.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, e, tbl, s, []model.UserPrivilege{policy.PermReadT1})
	for i := 0; i < grants; i++ {
		res := e.Submit(command.Grant("root", model.User(fmt.Sprintf("u%d", i)), model.Role(policy.RoleNurse)))
		if res.Outcome != command.Applied {
			t.Fatalf("grant %d: %v", i, res.Outcome)
		}
		checkAgainstOracle(t, e, tbl, s, []model.UserPrivilege{policy.PermReadT1})
	}
	if st := tbl.Stats(); st.Compiles > 2 {
		t.Fatalf("%d compiles over %d grant-only publishes, want at most one per replica", st.Compiles, grants)
	}
}

// TestCheckStaleSnapshotStaysConsistent pins an old snapshot across a
// revocation: the old snapshot must keep answering at its own generation
// (allowed), while a fresh snapshot sees the revocation.
func TestCheckStaleSnapshotStaysConsistent(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	old := e.Snapshot()
	defer old.Close()
	s, err := tbl.Create(old, "eve", []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := tbl.Check(old, s.ID, policy.PermReadT1); !ok {
		t.Fatal("nurse cannot read t1")
	}
	res := e.Submit(command.Revoke("root", model.User("eve"), model.Role(policy.RoleNurse)))
	if res.Outcome != command.Applied {
		t.Fatalf("revoke: %v", res.Outcome)
	}
	fresh := e.Snapshot()
	defer fresh.Close()
	if ok, _ := tbl.Check(fresh, s.ID, policy.PermReadT1); ok {
		t.Fatal("revoked role still contributes on the fresh snapshot")
	}
	// The pinned snapshot still serves its own generation's verdict.
	if ok, _ := tbl.Check(old, s.ID, policy.PermReadT1); !ok {
		t.Fatal("pinned snapshot lost its verdict after the revocation")
	}
}

func TestDSDConstraintsGuardActivation(t *testing.T) {
	cons, err := constraints.NewSet(constraints.Constraint{
		Name: "nurse-staff", Kind: constraints.DSD,
		Roles: []string{policy.RoleNurse, policy.RoleStaff}, N: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{Constraints: cons})
	snap := e.Snapshot()
	defer snap.Close()
	if _, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse, policy.RoleStaff}); err == nil {
		t.Fatal("create violated DSD")
	}
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Activate(snap, s.ID, policy.RoleStaff); err == nil {
		t.Fatal("activation violated DSD")
	}
	if err := tbl.Deactivate(s.ID, policy.RoleNurse); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Activate(snap, s.ID, policy.RoleStaff); err != nil {
		t.Fatalf("activation after deactivate: %v", err)
	}
}

// TestUpdateIsAtomic pins the transactional contract of the role-set
// update: a rejected batch (invalid role, DSD veto) must leave the session
// exactly as it was — no partially applied activations.
func TestUpdateIsAtomic(t *testing.T) {
	cons, err := constraints.NewSet(constraints.Constraint{
		Name: "nurse-staff", Kind: constraints.DSD,
		Roles: []string{policy.RoleNurse, policy.RoleStaff}, N: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{Constraints: cons})
	snap := e.Snapshot()
	defer snap.Close()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	// First role would be fine, second is unactivatable: nothing applies.
	if _, err := tbl.Update(snap, s.ID, []string{policy.RoleStaff, policy.RoleSO}, nil); err == nil {
		t.Fatal("update with an unactivatable role accepted")
	}
	if got := s.Roles(); len(got) != 1 || got[0] != policy.RoleNurse {
		t.Fatalf("roles after rejected update = %v (partial apply)", got)
	}
	// DSD veto on the proposed final set: still nothing applies.
	if _, err := tbl.Update(snap, s.ID, []string{policy.RoleStaff}, nil); err == nil {
		t.Fatal("update violating DSD accepted")
	}
	if got := s.Roles(); len(got) != 1 || got[0] != policy.RoleNurse {
		t.Fatalf("roles after DSD-vetoed update = %v", got)
	}
	// Swapping nurse out while staff comes in passes the DSD pair — the
	// whole point of evaluating constraints on the final proposed set.
	if _, err := tbl.Update(snap, s.ID, []string{policy.RoleStaff}, []string{policy.RoleNurse}); err != nil {
		t.Fatalf("swap update: %v", err)
	}
	if got := s.Roles(); len(got) != 1 || got[0] != policy.RoleStaff {
		t.Fatalf("roles after swap = %v", got)
	}
	// Unknown deactivation rejects without touching the activations.
	if _, err := tbl.Update(snap, s.ID, []string{policy.RoleNurse}, []string{policy.RoleSO}); err == nil {
		t.Fatal("update deactivating an inactive role accepted")
	}
	if got := s.Roles(); len(got) != 1 || got[0] != policy.RoleStaff {
		t.Fatalf("roles after rejected deactivation = %v", got)
	}
}

func TestMaxSessions(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{MaxSessions: 2})
	snap := e.Snapshot()
	defer snap.Close()
	for i := 0; i < 2; i++ {
		if _, err := tbl.Create(snap, policy.UserDiana, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Create(snap, policy.UserDiana, nil); err == nil {
		t.Fatal("table over capacity")
	}
	if n := tbl.Drain(); n != 2 {
		t.Fatalf("drained %d, want 2", n)
	}
	if _, err := tbl.Create(snap, policy.UserDiana, nil); err != nil {
		t.Fatalf("create after drain: %v", err)
	}
}

func TestRegistryPerTenantTables(t *testing.T) {
	r := NewRegistry(Options{})
	a, b := r.Table("a"), r.Table("b")
	if a == b {
		t.Fatal("tenants share a table")
	}
	if got := r.Table("a"); got != a {
		t.Fatal("table not cached")
	}
	if _, ok := r.Peek("c"); ok {
		t.Fatal("Peek minted a table")
	}
	e := engine.New(hospitalFixture(t), engine.Strict)
	snap := e.Snapshot()
	defer snap.Close()
	if _, err := a.Create(snap, policy.UserDiana, nil); err != nil {
		t.Fatal(err)
	}
	if r.Sessions() != 1 {
		t.Fatalf("Sessions = %d", r.Sessions())
	}
	if n := r.DrainAll(); n != 1 {
		t.Fatalf("DrainAll = %d", n)
	}
}

// TestCheckAllocs pins the fast-path contract: a warm check allocates
// nothing, for a privilege of the policy and for one that is no vertex.
func TestCheckAllocs(t *testing.T) {
	for _, name := range formerCacheSettings {
		t.Run(name, checkAllocs)
	}
}

func checkAllocs(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	defer snap.Close()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	// Box the privileges once, outside the measured loop: the interface
	// conversion is the caller's allocation, exactly like the command slabs
	// of the authorize benchmarks.
	for _, tc := range []struct {
		perm model.Privilege
		want bool
	}{
		{policy.PermReadT1, true},
		{model.Perm("write", "nowhere"), false},
	} {
		for i := 0; i < 3; i++ { // warm: intern, resolve, compile
			if ok, err := tbl.Check(snap, s.ID, tc.perm); err != nil || ok != tc.want {
				t.Fatalf("warm check %s: %v %v", tc.perm, ok, err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if ok, err := tbl.Check(snap, s.ID, tc.perm); err != nil || ok != tc.want {
				t.Fatalf("check %s failed", tc.perm)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Check(%s) allocates %v per op, want 0", tc.perm, allocs)
		}
	}
}

// TestDistinctPrivilegesAllocateLinearly: one session checking 4 096
// distinct privileges once each pays for interning and resolving each of
// them, not for anything that grows with the privileges it checked before.
func TestDistinctPrivilegesAllocateLinearly(t *testing.T) {
	const n, budget = 4096, 2 << 20
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	defer snap.Close()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	perms := make([]model.Privilege, n)
	for i := range perms {
		perms[i] = model.Perm("read", fmt.Sprintf("obj%d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, perm := range perms {
		if ok, err := tbl.Check(snap, s.ID, perm); err != nil || ok {
			t.Fatalf("check %s: %v %v", perm, ok, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%d distinct checks allocated %d bytes, budget %d", n, got, budget)
	}
}

// TestCheckNeverAllowsThroughADroppedRole races checks against a writer that
// activates staff (the only role reaching write t3) and drops it again with
// Deactivate or Update, letting the checkers run a few checks after each
// drop. A check that starts after the drop returned and ends before the next
// activation began must deny. Run under -race.
func TestCheckNeverAllowsThroughADroppedRole(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	defer snap.Close()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse})
	if err != nil {
		t.Fatal(err)
	}
	// phase is odd from the moment a drop returns until the next activation
	// is about to start.
	var phase, checks atomic.Uint64
	phase.Store(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p0 := phase.Load()
				ok, err := tbl.Check(snap, s.ID, policy.PermWriteT3)
				if err != nil {
					t.Error(err)
					return
				}
				if ok && p0%2 == 1 && phase.Load() == p0 {
					t.Errorf("check allowed write t3 through staff, dropped before the check began (phase %d)", p0)
					return
				}
				checks.Add(1)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		phase.Add(1)
		if err := tbl.Activate(snap, s.ID, policy.RoleStaff); err != nil {
			t.Fatal(err)
		}
		if ok, err := tbl.Check(snap, s.ID, policy.PermWriteT3); err != nil || !ok {
			t.Fatalf("write t3 denied with staff active: %v", err)
		}
		if i%2 == 0 {
			err = tbl.Deactivate(s.ID, policy.RoleStaff)
		} else {
			_, err = tbl.Update(snap, s.ID, nil, []string{policy.RoleStaff})
		}
		if err != nil {
			t.Fatal(err)
		}
		phase.Add(1)
		for want := checks.Load() + 4; checks.Load() < want && !t.Failed(); {
			runtime.Gosched()
		}
	}
	checkAgainstOracle(t, e, tbl, s, probePerms)
}

// TestCheckConcurrentChurn hammers Check from many goroutines while a
// writer grants and revokes the contributing assignment — the -race pass
// over the lock-free structures, with a quiesced exactness check at the end.
func TestCheckConcurrentChurn(t *testing.T) {
	e := engine.New(hospitalFixture(t), engine.Strict)
	tbl := NewTable(Options{})
	snap := e.Snapshot()
	s, err := tbl.Create(snap, policy.UserDiana, []string{policy.RoleNurse, policy.RoleStaff})
	snap.Close()
	if err != nil {
		t.Fatal(err)
	}

	const iters = 400
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
				}
				snap := e.Snapshot()
				for _, perm := range probePerms {
					if _, err := tbl.Check(snap, s.ID, perm); err != nil {
						t.Error(err)
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}()
	}
	for i := 0; i < iters; i++ {
		op := command.Revoke
		if i%2 == 1 {
			op = command.Grant
		}
		res := e.Submit(op("root", model.User(policy.UserDiana), model.Role(policy.RoleStaff)))
		if res.Outcome != command.Applied {
			t.Fatalf("churn %d: %v", i, res.Outcome)
		}
	}
	close(stop)
	wg.Wait()
	checkAgainstOracle(t, e, tbl, s, probePerms)
}
