package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// churnFixture builds a policy where root (via role admins) may assign any
// member user to role top under the refined regime (admins holds
// ¤(member, top), and every churned user is a member), plus exact ♦
// privileges for the churned UA edges so revocations are authorized too.
func churnFixture(users int) *policy.Policy {
	p := policy.New()
	p.AddInherit("top", "bot")
	p.Assign("root", "admins")
	if _, err := p.GrantPrivilege("admins", model.Grant(model.Role("member"), model.Role("top"))); err != nil {
		panic(err)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("u%d", i)
		p.Assign(u, "member")
		if _, err := p.GrantPrivilege("admins", model.Revoke(model.User(u), model.Role("top"))); err != nil {
			panic(err)
		}
	}
	return p
}

func grantCmd(i int) command.Command {
	return command.Grant("root", model.User(fmt.Sprintf("u%d", i)), model.Role("top"))
}

func revokeCmd(i int) command.Command {
	return command.Revoke("root", model.User(fmt.Sprintf("u%d", i)), model.Role("top"))
}

func TestEngineSubmitAndSnapshot(t *testing.T) {
	e := New(churnFixture(4), Refined)
	if e.Generation() != 0 {
		t.Fatalf("fresh engine generation = %d", e.Generation())
	}
	res := e.Submit(grantCmd(0))
	if res.Outcome != command.Applied {
		t.Fatalf("grant outcome = %v", res.Outcome)
	}
	if e.Generation() != 1 {
		t.Fatalf("generation after grant = %d", e.Generation())
	}
	s := e.Snapshot()
	defer s.Close()
	if !s.Policy().CanActivate("u0", "top") {
		t.Fatal("grant not visible in snapshot")
	}
	// The applied grant is justified by the held stronger privilege.
	just, ok := s.Authorize(grantCmd(1))
	if !ok {
		t.Fatal("refined authorization failed")
	}
	if just.Key() != model.Grant(model.Role("member"), model.Role("top")).Key() {
		t.Fatalf("justification = %v", just)
	}
	// A stranger is never authorized.
	if _, ok := s.Authorize(command.Grant("stranger", model.User("u0"), model.Role("top"))); ok {
		t.Fatal("stranger authorized")
	}
}

func TestEngineDeniedDoesNotPublish(t *testing.T) {
	e := New(churnFixture(2), Strict)
	gen := e.Generation()
	// Strict mode denies the member-hierarchy grant (root does not reach the
	// exact privilege vertex ¤(u0, top)).
	res := e.Submit(grantCmd(0))
	if res.Outcome != command.Denied {
		t.Fatalf("outcome = %v, want denied", res.Outcome)
	}
	if e.Generation() != gen {
		t.Fatal("denied command bumped the generation")
	}
}

func TestEngineSnapshotIsolation(t *testing.T) {
	e := New(churnFixture(4), Refined)
	old := e.Snapshot()
	defer old.Close()
	oldGen := old.Generation()

	for i := 0; i < 4; i++ {
		if res := e.Submit(grantCmd(i)); res.Outcome != command.Applied {
			t.Fatalf("grant %d outcome = %v", i, res.Outcome)
		}
	}
	// The held snapshot still reflects the old state.
	if old.Generation() != oldGen {
		t.Fatal("held snapshot changed generation")
	}
	if old.Policy().CanActivate("u0", "top") {
		t.Fatal("held snapshot observed a later mutation")
	}
	// A fresh snapshot sees everything.
	s := e.Snapshot()
	defer s.Close()
	for i := 0; i < 4; i++ {
		if !s.Policy().CanActivate(fmt.Sprintf("u%d", i), "top") {
			t.Fatalf("grant %d missing from fresh snapshot", i)
		}
	}
}

func TestEngineGuard(t *testing.T) {
	e := New(churnFixture(2), Refined)
	veto := fmt.Errorf("constraint violated")
	res, err := e.SubmitGuarded(grantCmd(0), func(pre *policy.Policy, _ command.Command) error { return veto })
	if err != veto || res.Outcome != command.Denied {
		t.Fatalf("guarded submit = (%v, %v)", res.Outcome, err)
	}
	if e.Generation() != 0 {
		t.Fatal("vetoed command changed state")
	}
}

func TestEngineLogTrimResync(t *testing.T) {
	e := New(churnFixture(4), Refined)
	// Pin the initial replica with a long-held snapshot so the writer must
	// clone, then churn far past the log window to force a resync.
	held := e.Snapshot()
	for i := 0; i < maxEngineLog+128; i++ {
		u := i % 4
		e.Submit(grantCmd(u))
		e.Submit(revokeCmd(u))
	}
	e.Submit(grantCmd(3))
	held.Close()
	// The previously pinned replica is behind the trimmed window; the next
	// submit must resynchronise it, not replay garbage.
	e.Submit(grantCmd(2))
	s := e.Snapshot()
	defer s.Close()
	for i, want := range []bool{false, false, true, true} {
		if got := s.Policy().CanActivate(fmt.Sprintf("u%d", i), "top"); got != want {
			t.Fatalf("u%d on top = %v, want %v", i, got, want)
		}
	}
}

// TestEngineConcurrentAuthorize is the -race stress: readers hammer
// Authorize against snapshots while the writer churns grants and
// revocations (revocations exercise the closure-rebuild path). Readers
// assert two invariants the churn never touches — root's authority holds,
// a stranger's never does — and that observed generations are monotone
// (linearizable observation of the publication order).
func TestEngineConcurrentAuthorize(t *testing.T) {
	const (
		readers     = 8
		readsPerG   = 2000
		writerSteps = 1500
	)
	e := New(churnFixture(8), Refined)
	var wg sync.WaitGroup
	var failures atomic.Int64

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastGen uint64
			probe := grantCmd(g % 8)
			stranger := command.Grant("stranger", model.User("u0"), model.Role("top"))
			for i := 0; i < readsPerG; i++ {
				s := e.Snapshot()
				if gen := s.Generation(); gen < lastGen {
					t.Errorf("reader %d: generation went backwards %d -> %d", g, lastGen, gen)
					failures.Add(1)
				} else {
					lastGen = gen
				}
				if _, ok := s.Authorize(probe); !ok {
					t.Errorf("reader %d: root lost authority at generation %d", g, s.Generation())
					failures.Add(1)
				}
				if _, ok := s.Authorize(stranger); ok {
					t.Errorf("reader %d: stranger gained authority", g)
					failures.Add(1)
				}
				s.Close()
				if failures.Load() > 0 {
					return
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerSteps && failures.Load() == 0; i++ {
			u := i % 8
			if i%3 == 2 {
				e.Submit(revokeCmd(u))
			} else {
				e.Submit(grantCmd(u))
			}
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatal("concurrent invariants violated")
	}
	// Post-condition: the final snapshot agrees with a sequential replay.
	s := e.Snapshot()
	defer s.Close()
	if _, ok := s.Authorize(grantCmd(0)); !ok {
		t.Fatal("root authority lost after churn")
	}
}

func TestNewAtStartsAtRecoveredGeneration(t *testing.T) {
	e := NewAt(churnFixture(4), Refined, 17, true)
	if got := e.Generation(); got != 17 {
		t.Fatalf("generation = %d, want 17", got)
	}
	res := e.Submit(grantCmd(0))
	if res.Outcome != command.Applied {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if got := e.Generation(); got != 18 {
		t.Fatalf("generation after submit = %d, want 18", got)
	}
}

func TestCommitHookWriteAhead(t *testing.T) {
	e := New(churnFixture(4), Refined)
	var gens []uint64
	e.SetCommitHook(func(gen uint64, res command.StepResult) error {
		if res.Outcome != command.Applied {
			t.Errorf("hook saw outcome %v", res.Outcome)
		}
		// The hook runs pre-publish: readers must not see the new state yet.
		if cur := e.Generation(); cur != gen-1 {
			t.Errorf("hook at gen %d but published generation already %d", gen, cur)
		}
		gens = append(gens, gen)
		return nil
	})
	e.Submit(grantCmd(0))
	e.Submit(grantCmd(0)) // AppliedNoChange: hook must not fire
	e.Submit(revokeCmd(0))
	if want := []uint64{1, 2}; len(gens) != 2 || gens[0] != want[0] || gens[1] != want[1] {
		t.Fatalf("hook generations %v, want %v", gens, want)
	}
}

func TestCommitHookFailureRollsBack(t *testing.T) {
	e := New(churnFixture(4), Refined)
	fail := false
	e.SetCommitHook(func(gen uint64, res command.StepResult) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		return nil
	})
	if res := e.Submit(grantCmd(0)); res.Outcome != command.Applied {
		t.Fatalf("outcome %v", res.Outcome)
	}
	fail = true
	res, err := e.SubmitGuarded(grantCmd(1), nil)
	if err == nil {
		t.Fatal("expected commit error")
	}
	var ce *CommitError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T, want *CommitError", err)
	}
	if res.Outcome != command.Denied {
		t.Fatalf("outcome %v, want Denied", res.Outcome)
	}
	if e.Generation() != 1 {
		t.Fatalf("generation advanced to %d despite hook failure", e.Generation())
	}
	s := e.Snapshot()
	defer s.Close()
	if s.Policy().HasEdge(model.User("u1"), model.Role("top")) {
		t.Fatal("failed commit left its edge in the policy")
	}
	// The engine recovers once the hook does: the same command goes through.
	fail = false
	if res := e.Submit(grantCmd(1)); res.Outcome != command.Applied {
		t.Fatalf("post-recovery outcome %v", res.Outcome)
	}
	if e.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", e.Generation())
	}
}

func TestSubmitBatchPublishesOnce(t *testing.T) {
	e := New(churnFixture(8), Refined)
	var published []uint64
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s := e.Snapshot()
				g := s.Generation()
				s.Close()
				if len(published) == 0 || published[len(published)-1] != g {
					published = append(published, g)
				}
			}
		}
	}()

	cmds := []command.Command{grantCmd(0), grantCmd(1), grantCmd(1), grantCmd(2)}
	out, err := e.SubmitBatch(cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	wantOutcomes := []command.Outcome{command.Applied, command.Applied, command.AppliedNoChange, command.Applied}
	for i, w := range wantOutcomes {
		if out[i].Outcome != w {
			t.Fatalf("cmd %d outcome %v, want %v", i, out[i].Outcome, w)
		}
	}
	if e.Generation() != 3 {
		t.Fatalf("generation = %d, want 3", e.Generation())
	}
	// No intermediate generation was ever observable: the reader saw only 0
	// and then 3 (a batch publishes at most one snapshot).
	for _, g := range published {
		if g != 0 && g != 3 {
			t.Fatalf("reader observed intermediate generation %d during batch", g)
		}
	}
}

func TestSubmitBatchGuardVetoContinues(t *testing.T) {
	e := New(churnFixture(4), Refined)
	calls := 0
	out, err := e.SubmitBatch([]command.Command{grantCmd(0), grantCmd(1)}, func(pre *policy.Policy, _ command.Command) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("vetoed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("guard veto must not abort the batch: %v", err)
	}
	if out[0].Outcome != command.Denied || out[1].Outcome != command.Applied {
		t.Fatalf("outcomes %v, %v", out[0].Outcome, out[1].Outcome)
	}
}

func TestAuthorizeBatchMatchesSingle(t *testing.T) {
	e := New(churnFixture(8), Refined)
	e.Submit(grantCmd(0))
	cmds := []command.Command{
		grantCmd(1),
		command.Grant("u1", model.User("u2"), model.Role("top")), // u1 holds nothing
		revokeCmd(0),
		{}, // ill-formed
	}
	s := e.Snapshot()
	defer s.Close()
	batch := s.AuthorizeBatchInto(cmds, nil)
	if len(batch) != len(cmds) {
		t.Fatalf("batch returned %d results", len(batch))
	}
	for i, c := range cmds {
		just, ok := s.Authorize(c)
		if ok != batch[i].OK {
			t.Fatalf("cmd %d: batch OK=%v, single OK=%v", i, batch[i].OK, ok)
		}
		if ok && just.String() != batch[i].Justification.String() {
			t.Fatalf("cmd %d: justification %v vs %v", i, batch[i].Justification, just)
		}
	}
}

func TestSnapshotExplainCommand(t *testing.T) {
	e := New(churnFixture(2), Refined)
	s := e.Snapshot()
	defer s.Close()
	if got := s.ExplainCommand(grantCmd(0)); !strings.Contains(got, "authorized") {
		t.Fatalf("explain = %q, want authorized", got)
	}
	denied := command.Grant("u0", model.User("u1"), model.Role("top"))
	if got := s.ExplainCommand(denied); !strings.Contains(got, "denied") {
		t.Fatalf("explain = %q, want denied", got)
	}
	if got := s.ExplainCommand(command.Command{}); !strings.Contains(got, "ill-formed") {
		t.Fatalf("explain = %q, want ill-formed", got)
	}
}
