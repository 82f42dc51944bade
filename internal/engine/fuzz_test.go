package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// FuzzDecide turns its input into a script of writes against four engines —
// strict and refined, each with the verdict store on and off — and after
// every step checks each published snapshot against a decider built from
// scratch on a clone of its policy, and each write against a model policy
// that runs the same commands through command.Step with a fresh authorizer.
// Each byte is an opcode (mod 7), read with its operand bytes (0 past the
// end):
//
//	0 a e      actor a grants alphabet edge e
//	1 a e      actor a revokes alphabet edge e
//	2 a k      actor a submits ill-formed command k
//	3          the next submission's commit flush fails (rollbackLocked; an
//	           undone grant that introduced a vertex resyncs the replica)
//	4          the next applied command's commit hook fails (the in-step undo)
//	5 n (o a e)…  one SubmitBatch of n%4+2 grants (o even) and revokes
//	6          pin the published snapshots until the script ends
//
// The alphabet covers UA, RH and PA edges, the PA ones onto privileges
// nested to depth 3; the administrator holds both privileges of every edge,
// and the other actors hold what PA grants give their roles.
func FuzzDecide(f *testing.F) {
	base := fuzzPolicy()
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		var engines []*fuzzEngine
		for _, mode := range []Mode{Strict, Refined} {
			for _, cached := range []bool{false, true} {
				engines = append(engines, newFuzzEngine(base.Clone(), mode, cached))
			}
		}
		defer func() {
			for _, fe := range engines {
				for _, s := range fe.pins {
					s.Close()
				}
			}
		}()
		cmd := func(op, a, e int) command.Command {
			edge := fuzzEdges[e%len(fuzzEdges)]
			c := command.Grant(fuzzActors[a%len(fuzzActors)], edge[0], edge[1])
			if op%2 == 1 {
				c.Op = model.OpRevoke
			}
			return c
		}
		for step := 0; len(script) > 0 && step < 48; step++ {
			var cmds []command.Command
			switch op := next() % 7; op {
			case 0, 1:
				cmds = []command.Command{cmd(op, next(), next())}
			case 2:
				a, k := next(), next()
				c := fuzzIllFormed[k%len(fuzzIllFormed)]
				c.Actor = fuzzActors[a%len(fuzzActors)]
				cmds = []command.Command{c}
			case 3:
				for _, fe := range engines {
					fe.failFlush = true
				}
			case 4:
				for _, fe := range engines {
					fe.failHook = true
				}
			case 5:
				for n := next()%4 + 2; n > 0; n-- {
					cmds = append(cmds, cmd(next(), next(), next()))
				}
			case 6:
				for _, fe := range engines {
					if len(fe.pins) < 3 {
						fe.pins = append(fe.pins, fe.e.Snapshot())
					}
				}
			}
			for _, fe := range engines {
				ctx := fmt.Sprintf("step %d, %s (store %v)", step, fe.e.mode, fe.e.cached)
				if cmds != nil {
					fe.submit(t, ctx, cmds)
				}
				fe.check(t, ctx, cmds)
			}
		}
	})
}

var (
	fuzzActors = []string{"admin", "u1", "u2"}
	fuzzRoles  = []model.Entity{model.Role("r0"), model.Role("r1"), model.Role("r2"), model.Role("r3")}
	// fuzzPrivs are the PA targets of the alphabet, nested to depth 3.
	fuzzPrivs = []model.Privilege{
		model.Grant(model.User("u2"), model.Role("r1")),
		model.Grant(model.Role("r1"), model.Role("r3")),
		model.Grant(model.Role("r0"), model.Grant(model.User("u2"), model.Role("r2"))),
		model.Grant(model.Role("r2"), model.Grant(model.Role("r1"), model.Grant(model.User("u1"), model.Role("r3")))),
		model.Revoke(model.User("u1"), model.Role("r0")),
		model.Grant(model.Role("r3"), model.Grant(model.Role("r3"), model.Role("r1"))),
		model.Grant(model.User("u1"), model.Role("r2")),
		model.Perm("read", "t"),
		// The destinations of the nested ones, so that holding one
		// authorizes a PA edge of the alphabet.
		model.Grant(model.User("u2"), model.Role("r2")),
		model.Grant(model.Role("r3"), model.Role("r1")),
		model.Grant(model.Role("r1"), model.Grant(model.User("u1"), model.Role("r3"))),
		// Targets that are no vertex of fuzzPolicy, so that granting one
		// adds a privilege vertex.
		model.Grant(model.Role("r0"), model.Grant(model.Role("r0"), model.Grant(model.User("u1"), model.Role("r1")))),
		model.Perm("write", "t"),
	}
	fuzzEdges     = alphabetEdges()
	fuzzIllFormed = []command.Command{
		{Op: model.OpGrant, From: model.Role("r0"), To: model.User("u1")},
		{Op: model.OpGrant, From: model.User("u1"), To: model.User("u2")},
		{Op: model.OpGrant, From: model.User("u1"), To: fuzzPrivs[0]},
		{Op: model.OpRevoke, From: fuzzPrivs[1], To: model.Role("r0")},
		{Op: model.OpGrant, From: model.Role("r0")},
		{Op: model.Op(9), From: model.User("u1"), To: model.Role("r0")},
	}
)

// alphabetEdges lists UA edges from u1 and u2, RH edges between distinct
// roles, and PA edges onto fuzzPrivs.
func alphabetEdges() [][2]model.Vertex {
	var out [][2]model.Vertex
	for _, u := range []string{"u1", "u2"} {
		for _, r := range fuzzRoles {
			out = append(out, [2]model.Vertex{model.User(u), r})
		}
	}
	for _, s := range fuzzRoles {
		for _, d := range fuzzRoles {
			if s != d {
				out = append(out, [2]model.Vertex{s, d})
			}
		}
	}
	for _, r := range fuzzRoles {
		for _, p := range fuzzPrivs {
			out = append(out, [2]model.Vertex{r, p})
		}
	}
	return out
}

// fuzzPolicy: admin holds the grant and the revoke privilege of every
// alphabet edge; u1 and u2 start in r0 and r3, r0 inherits r1, and r1 and r2
// hold two of fuzzPrivs.
func fuzzPolicy() *policy.Policy {
	p := policy.New()
	p.Assign("admin", "ra")
	for _, e := range fuzzEdges {
		mustPA(p, "ra", model.Grant(e[0].(model.Entity), e[1]))
		mustPA(p, "ra", model.Revoke(e[0].(model.Entity), e[1]))
	}
	p.Assign("u1", "r0")
	p.Assign("u2", "r3")
	p.AddInherit("r0", "r1")
	mustPA(p, "r1", fuzzPrivs[0])
	mustPA(p, "r2", fuzzPrivs[2])
	return p
}

// fuzzBattery is queried at every step, so its commands are interned from
// the second step on: each actor's use of every fuzzPrivs admin privilege,
// and of the same privilege with r0 as its source.
var fuzzBattery = func() []command.Command {
	var out []command.Command
	for _, a := range fuzzActors {
		for _, p := range fuzzPrivs {
			if ap, ok := p.(model.AdminPrivilege); ok {
				out = append(out,
					command.Command{Actor: a, Op: ap.Op, From: ap.Src, To: ap.Dst},
					command.Command{Actor: a, Op: ap.Op, From: model.Role("r0"), To: ap.Dst})
			}
		}
	}
	return append(out, fuzzIllFormed[0])
}()

type fuzzEngine struct {
	e                   *Engine
	model               *policy.Policy
	failFlush, failHook bool // armed faults, consumed by the engine's hooks
	pins                []*Snapshot
	buf                 []AuthzResult
}

var errFuzzDisk = errors.New("disk full")

func newFuzzEngine(p *policy.Policy, mode Mode, cached bool) *fuzzEngine {
	fe := &fuzzEngine{e: NewAt(p, mode, 0, cached), model: p.Clone()}
	fe.e.SetCommitFlush(func(bool) error {
		if fe.failFlush {
			fe.failFlush = false
			return errFuzzDisk
		}
		return nil
	})
	fe.e.SetCommitHook(func(uint64, command.StepResult) error {
		if fe.failHook {
			fe.failHook = false
			return errFuzzDisk
		}
		return nil
	})
	return fe
}

func (fe *fuzzEngine) authorizer() command.Authorizer {
	if fe.e.mode == Refined {
		return core.NewRefinedAuthorizer(fe.model)
	}
	return command.Strict{}
}

// submit runs cmds through the engine (one Submit, or one SubmitBatch) and
// the model, with the faults the engine's hooks are armed with.
func (fe *fuzzEngine) submit(t *testing.T, ctx string, cmds []command.Command) {
	t.Helper()
	failHook, failFlush := fe.failHook, fe.failFlush
	pre := fe.model.Clone()
	var want []command.StepResult
	applied := false
	for _, c := range cmds {
		stepPre := fe.model.Clone()
		res := command.Step(fe.model, c, fe.authorizer())
		if res.Outcome == command.Applied && failHook {
			failHook = false
			fe.model = stepPre
			want = append(want, command.StepResult{Cmd: c, Outcome: command.Denied})
			break
		}
		applied = applied || res.Outcome == command.Applied
		want = append(want, res)
	}
	if applied && failFlush {
		failFlush = false
		fe.model = pre
		for i := range want {
			if want[i].Outcome == command.Applied {
				want[i] = command.StepResult{Cmd: want[i].Cmd, Outcome: command.Denied}
			}
		}
	}
	var got []command.StepResult
	if len(cmds) == 1 {
		res, _ := fe.e.SubmitGuarded(cmds[0], nil)
		got = []command.StepResult{res}
	} else {
		got, _ = fe.e.SubmitBatch(cmds, nil)
	}
	if len(got) != len(want) || fe.failHook != failHook || fe.failFlush != failFlush {
		t.Fatalf("%s: %v: %d results, hook/flush faults left %v/%v; model %d, %v/%v",
			ctx, cmds, len(got), fe.failHook, fe.failFlush, len(want), failHook, failFlush)
	}
	for i := range want {
		if got[i].Outcome != want[i].Outcome || !samePriv(got[i].Justification, want[i].Justification) {
			t.Fatalf("%s: %v: %v justified by %v, model %v justified by %v",
				ctx, want[i].Cmd, got[i].Outcome, got[i].Justification, want[i].Outcome, want[i].Justification)
		}
	}
}

// check compares every read of the published snapshot with a decider built
// from scratch on a clone of its policy.
func (fe *fuzzEngine) check(t *testing.T, ctx string, stepCmds []command.Command) {
	t.Helper()
	s := fe.e.Snapshot()
	defer s.Close()
	if !s.Policy().Equal(fe.model) {
		removed, added := fe.model.Diff(s.Policy())
		t.Fatalf("%s: published policy lacks %v and has %v more than the model", ctx, removed, added)
	}
	// Readers never advance a Reach: the one a published replica carries is
	// unbuilt (its first reader builds it) or reflects the replica's policy.
	if reach := reflect.ValueOf(s.r.reach).Elem(); !reach.FieldByName("closure").IsNil() &&
		reach.FieldByName("gen").Uint() != s.r.pol.Generation() {
		t.Fatalf("%s: published at policy generation %d, its closure at %d",
			ctx, s.r.pol.Generation(), reach.FieldByName("gen").Uint())
	}
	ref := core.NewDecider(s.Policy().Clone())
	queries := append(append([]command.Command(nil), fuzzBattery...), stepCmds...)
	for _, c := range stepCmds {
		for _, a := range fuzzActors {
			c.Actor = a
			queries = append(queries, c)
		}
	}
	fe.buf = s.AuthorizeBatchInto(queries, fe.buf)
	for i, c := range queries {
		var wantJ model.Privilege
		want := false
		if priv, err := c.Privilege(); err == nil && c.Validate() == nil {
			if fe.e.mode == Refined {
				wantJ, want = ref.HeldStronger(c.Actor, priv)
			} else if want = ref.Holds(c.Actor, priv); want {
				wantJ = priv
			}
		}
		j, ok := s.Authorize(c)
		if ok != want || fe.buf[i].OK != want {
			t.Fatalf("%s: %v: Authorize %v, batch %v, want %v", ctx, c, ok, fe.buf[i].OK, want)
		}
		if !ok {
			continue
		}
		if !samePriv(j, fe.buf[i].Justification) {
			t.Fatalf("%s: %v: Authorize justified by %v, batch by %v", ctx, c, j, fe.buf[i].Justification)
		}
		// A stored positive keeps the witness found when it was stored, which
		// later grants may have preceded (see TestCachedAuthorizeEquivalence).
		if !samePriv(j, wantJ) && !(fe.e.cached && s.Policy().Reaches(model.User(c.Actor), j) && ref.Weaker(j, mustPrivilege(c))) {
			t.Fatalf("%s: %v: justified by %v, want %v", ctx, c, j, wantJ)
		}
	}
	for _, a := range fuzzActors {
		for _, q := range fuzzPrivs {
			j, ok := s.HeldStronger(a, q)
			wantJ, want := ref.HeldStronger(a, q)
			if ok != want || !samePriv(j, wantJ) {
				t.Fatalf("%s: HeldStronger(%s, %v) = %v, %v, want %v, %v", ctx, a, q, j, ok, wantJ, want)
			}
		}
	}
	for _, p := range fuzzPrivs {
		for _, q := range fuzzPrivs {
			for _, pp := range []model.Privilege{p, model.Grant(model.Role("r0"), p)} {
				if got, want := s.Weaker(pp, q), ref.Weaker(pp, q); got != want {
					t.Fatalf("%s: Weaker(%v, %v) = %v, want %v", ctx, pp, q, got, want)
				}
			}
		}
	}
}

func samePriv(a, b model.Privilege) bool {
	return (a == nil && b == nil) || (a != nil && b != nil && model.SamePrivilege(a, b))
}

func mustPrivilege(c command.Command) model.Privilege {
	p, err := c.Privilege()
	if err != nil {
		panic(err)
	}
	return p
}
