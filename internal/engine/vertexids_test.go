package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Interned commands keep their vertex resolutions once per engine
// (command.FPInfo), so every replica must give a vertex the same id. The
// tests below undo grants that introduced a vertex, the one way the replicas
// could disagree: RemoveEdge never removes a vertex.
//
// An authorized grant never introduces a user or role (the privilege that
// authorizes it declares its entities), but a PA grant introduces the
// privilege vertex it assigns. In idsFixture root may assign the privileges
// ¤(xi, top) and ¤(yi, top) to staff, and member s of staff holds whichever
// it was assigned, so s is authorized for cmd(s, ¤, yi, top) exactly while
// staff holds ¤(yi, top).

func idsFixture(n int) *policy.Policy {
	p := policy.New()
	p.AddInherit("top", "bot")
	p.Assign("root", "admins")
	p.Assign("s", "staff")
	for i := 0; i < n; i++ {
		for _, u := range []string{"x", "y"} {
			if _, err := p.GrantPrivilege("admins", model.Grant(model.Role("staff"), idsPriv(u, i))); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// idsPriv is ¤(ui, top), the privilege vertex cmd(root, ¤, staff, ¤(ui, top))
// introduces.
func idsPriv(u string, i int) model.Privilege {
	return model.Grant(model.User(fmt.Sprintf("%s%d", u, i)), model.Role("top"))
}

func idsAssign(u string, i int) command.Command {
	return command.Grant("root", model.Role("staff"), idsPriv(u, i))
}

// idsUse is the command staff's member is authorized for once staff holds
// ¤(ui, top).
func idsUse(u string, i int) command.Command {
	return command.Grant("s", model.User(fmt.Sprintf("%s%d", u, i)), model.Role("top"))
}

// sameVertexIDs fails unless the replicas' vertex tables agree on every id
// they share.
func sameVertexIDs(t *testing.T, replicas []*replica) {
	t.Helper()
	g0 := replicas[0].pol.Graph()
	for _, r := range replicas[1:] {
		g := r.pol.Graph()
		for id := 0; id < min(g.NumVertices(), g0.NumVertices()); id++ {
			if g.Key(id) != g0.Key(id) {
				t.Fatalf("vertex %d is %s on one replica and %s on another", id, g0.Key(id), g.Key(id))
			}
		}
	}
}

func TestUndoneGrantKeepsVertexIDs(t *testing.T) {
	for _, mode := range []Mode{Strict, Refined} {
		for _, undo := range []string{"flush", "hook"} {
			t.Run(mode.String()+"/"+undo, func(t *testing.T) {
				e := New(idsFixture(2), mode)
				fail := errors.New("disk full")
				failing := false
				if undo == "flush" {
					e.SetCommitFlush(func(bool) error {
						if failing {
							return fail
						}
						return nil
					})
				} else {
					e.SetCommitHook(func(uint64, command.StepResult) error {
						if failing {
							return fail
						}
						return nil
					})
				}
				// Two replicas exist once one write has published.
				if res := e.Submit(idsAssign("y", 1)); res.Outcome != command.Applied {
					t.Fatalf("warm-up grant: %v", res.Outcome)
				}
				failing = true
				if _, err := e.SubmitGuarded(idsAssign("x", 0), nil); !errors.Is(err, fail) {
					t.Fatalf("failing grant: err %v", err)
				}
				failing = false
				if res := e.Submit(idsAssign("y", 0)); res.Outcome != command.Applied {
					t.Fatalf("grant after the undo: %v", res.Outcome)
				}
				// Pin the replica that published the grant, and publish the
				// other one with it caught up.
				s1 := e.Snapshot()
				defer s1.Close()
				if res := e.Submit(idsAssign("x", 1)); res.Outcome != command.Applied {
					t.Fatalf("grant on the other replica: %v", res.Outcome)
				}
				s2 := e.Snapshot()
				defer s2.Close()
				if s1.r == s2.r {
					t.Fatal("both snapshots on one replica")
				}
				sameVertexIDs(t, []*replica{s2.r, s1.r})

				cmds := []command.Command{idsUse("x", 0), idsUse("y", 0), idsUse("x", 1), idsUse("y", 1),
					idsAssign("x", 0), idsAssign("y", 0), command.Grant("s", model.Role("staff"), idsPriv("y", 0))}
				for _, c := range cmds {
					e.interner.Command(c)
				}
				// Resolve on the older snapshot first, then on the newer one,
				// then again in the other order.
				for _, s := range []*Snapshot{s1, s2, s2, s1} {
					fresh := core.NewDecider(s.r.pol.Clone())
					d := s.r.reach.Borrow()
					for _, c := range cmds {
						info := e.interner.Command(c)
						priv, _ := c.Privilege()
						wantJ, want := fresh.HeldStronger(c.Actor, priv)
						if j, ok := d.AuthorizeFP(e.interner, info, true); ok != want || (ok && !model.SamePrivilege(j, wantJ)) {
							t.Errorf("generation %d: %v refined = %v, %v, want %v, %v", s.gen, c, j, ok, wantJ, want)
						}
						want = fresh.Holds(c.Actor, priv)
						if j, ok := d.AuthorizeFP(e.interner, info, false); ok != want || (ok && !model.SamePrivilege(j, priv)) {
							t.Errorf("generation %d: %v strict = %v, %v, want %v", s.gen, c, j, ok, want)
						}
					}
					d.Release()
				}
			})
		}
	}
}

// TestUndoneGrantsUnderConcurrentReaders: readers on both replicas decide the
// same interned commands, with no verdict store, while the writer assigns
// fresh privilege vertices and every other assignment fails its flush.
func TestUndoneGrantsUnderConcurrentReaders(t *testing.T) {
	const n = 48
	for _, mode := range []Mode{Strict, Refined} {
		t.Run(mode.String(), func(t *testing.T) {
			e := NewAt(idsFixture(n), mode, 0, false)
			var failing atomic.Bool
			e.SetCommitFlush(func(bool) error {
				if failing.Load() {
					return errors.New("disk full")
				}
				return nil
			})
			var done atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for k := r; !done.Load(); k++ {
						u, i := []string{"x", "y"}[k%2], k/2%n
						s := e.Snapshot()
						_, ok := s.Authorize(idsUse(u, i))
						want := s.Policy().HasEdge(model.Role("staff"), idsPriv(u, i))
						s.Close()
						if ok != want {
							t.Errorf("%v: allowed %v, staff holds it %v", idsUse(u, i), ok, want)
							return
						}
					}
				}(r)
			}
			for i := 0; i < n; i++ {
				failing.Store(true)
				e.Submit(idsAssign("x", i))
				failing.Store(false)
				if res := e.Submit(idsAssign("y", i)); res.Outcome != command.Applied {
					t.Errorf("grant %d: %v", i, res.Outcome)
				}
			}
			done.Store(true)
			wg.Wait()
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, r := range e.replicas {
				e.catchUp(r)
				if nv, want := r.pol.Graph().NumVertices(), e.replicas[0].pol.Graph().NumVertices(); nv != want {
					t.Fatalf("caught-up replicas hold %d and %d vertices", want, nv)
				}
			}
			sameVertexIDs(t, e.replicas)
		})
	}
}
