package core

import (
	"fmt"
	"math/rand"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/graph"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// An entity-destination query — every command a client can submit — is
// decided on vertex ids (flatWeaker) without interning the term. These tests
// pin the two halves of that contract: the uninterned path leaves nothing
// behind in the decider, and it is a refinement of the hash-consed ordering
// it stands in for.

func TestFirstSightQueriesLeaveNoState(t *testing.T) {
	const roles, users, queries = 128, 128, 16384
	p := policy.New()
	for i := 0; i+1 < roles; i++ {
		p.AddInherit(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
	}
	for i := 0; i < users; i++ {
		p.Assign(fmt.Sprintf("m%d", i), "member")
	}
	p.Assign("admin", "admins")
	if _, err := p.GrantPrivilege("admins", model.Grant(model.Role("member"), model.Role("c0"))); err != nil {
		t.Fatal(err)
	}
	d := NewDecider(p)
	d.HeldStronger("admin", model.Grant(model.User("m0"), model.Role("c0"))) // warm
	terms, children, memo := len(d.terms), len(d.children), len(d.memoPos)+len(d.memoNeg)

	for i := 0; i < queries; i++ {
		member := fmt.Sprintf("m%d", i%users)
		actor, role, want := "admin", fmt.Sprintf("c%d", i/users), true
		switch i % 4 {
		case 1: // a member holds nothing
			actor, want = member, false
		case 2: // unknown actor
			actor, want = fmt.Sprintf("ghost%d", i), false
		case 3: // unknown role
			role, want = fmt.Sprintf("nowhere%d", i), false
		}
		if _, ok := d.HeldStronger(actor, model.Grant(model.User(member), model.Role(role))); ok != want {
			t.Fatalf("query %d (%s grants %s to %s): allowed=%v, want %v", i, actor, member, role, ok, want)
		}
	}
	if len(d.terms) != terms || len(d.children) != children || len(d.memoPos)+len(d.memoNeg) != memo {
		t.Fatalf("one-shot queries left state: terms %d→%d, children %d→%d, memo %d→%d",
			terms, len(d.terms), children, len(d.children), memo, len(d.memoPos)+len(d.memoNeg))
	}
}

// strongerHeldBy lists every privilege vertex the user reaches that is at
// least as strong as q, in the policy's privilege-vertex order: the flat
// scan of HeldStronger, not stopped at the first witness.
func strongerHeldBy(d *Decider, user string, q model.Privilege) []model.Privilege {
	d.check()
	uv := d.reach.pol.EntityVertex(model.User(user))
	if uv == graph.NoVertex {
		return nil
	}
	var out []model.Privilege
	qq := newQuery(q)
	for i := d.nextHeld(uv, &qq, 0); i >= 0; i = d.nextHeld(uv, &qq, i+1) {
		out = append(out, d.reach.privVerts[i])
	}
	return out
}

// refStrongerHeldBy is the ordering the flat path must refine, with none of
// the decider's per-query machinery: reachability by the policy's own DFS,
// rule (1) by canonical (escaped) key equality, everything else by a fresh
// decider's hash-consed Weaker.
func refStrongerHeldBy(p *policy.Policy, user string, q model.Privilege) []model.Privilege {
	fresh := NewDecider(p)
	var out []model.Privilege
	for _, h := range p.PrivilegeVertices() {
		if !p.Reaches(model.User(user), h) {
			continue
		}
		if (h.Key() == q.Key()) != (fresh.id(h) == fresh.id(q)) {
			panic(fmt.Sprintf("structural and key equality disagree on %v vs %v", h, q))
		}
		if fresh.Weaker(h, q) {
			out = append(out, h)
		}
	}
	return out
}

func TestFlatDecisionEqualsHashConsedOrdering(t *testing.T) {
	// Names that need escaping in canonical keys, an escaped form that must
	// stay distinct from what it escapes, and one name used for both kinds.
	roleNames := []string{"r0", "r1", "r2", "r3", "a,b", "a%2Cb", "x:y", "(p)", "%", "both"}
	userNames := []string{"u0", "u1", "u2", "a,b", "x:y", "both"}
	absent := []string{"late", "never", "a%252Cb"}
	pick := func(rng *rand.Rand, names []string) string {
		if rng.Intn(5) == 0 {
			return absent[rng.Intn(len(absent))]
		}
		return names[rng.Intn(len(names))]
	}
	// entity draws a user or role of the policy, or an absent one.
	entity := func(rng *rand.Rand, p *policy.Policy) model.Entity {
		if rng.Intn(2) == 0 {
			return model.User(pick(rng, p.Users()))
		}
		return model.Role(pick(rng, p.Roles()))
	}
	random := func(rng *rand.Rand) *policy.Policy {
		p := policy.New()
		for i := 0; i < 12; i++ { // cycles allowed: any pair, either direction
			p.AddInherit(roleNames[rng.Intn(len(roleNames))], roleNames[rng.Intn(len(roleNames))])
		}
		for _, u := range userNames {
			p.Assign(u, roleNames[rng.Intn(len(roleNames))])
		}
		for i := 0; i < 8; i++ {
			op := model.OpGrant
			if rng.Intn(4) == 0 {
				op = model.OpRevoke
			}
			var priv model.Privilege = model.AdminPrivilege{Op: op, Src: entity(rng, p), Dst: model.Role(pick(rng, roleNames))}
			if rng.Intn(4) == 0 {
				priv = model.Grant(model.Role(roleNames[rng.Intn(len(roleNames))]), priv)
			}
			if _, err := p.GrantPrivilege(roleNames[rng.Intn(len(roleNames))], priv); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.GrantPrivilege(roleNames[0], model.Perm("read", "t")); err != nil {
			t.Fatal(err)
		}
		return p
	}

	check := func(trial int, p *policy.Policy, d *Decider, it *command.Interner, rng *rand.Rand) {
		t.Helper()
		privs := p.PrivilegeVertices()
		for n := 0; n < 200; n++ {
			op := model.OpGrant
			if rng.Intn(4) == 0 {
				op = model.OpRevoke
			}
			actor := pick(rng, p.Users())
			q := model.AdminPrivilege{Op: op, Src: entity(rng, p), Dst: entity(rng, p)}
			// Half the queries lean on a privilege of the policy, so that
			// rules (1) and (2) fire often enough to be compared.
			if h, ok := privs[rng.Intn(len(privs))].(model.AdminPrivilege); ok && n%2 == 0 {
				if hd, ok := h.Dst.(model.Entity); ok {
					q.Op = h.Op
					if rng.Intn(2) == 0 {
						q.Src = h.Src
					}
					if rng.Intn(2) == 0 {
						q.Dst = hd
					}
				}
			}
			want := refStrongerHeldBy(p, actor, q)

			got := strongerHeldBy(d, actor, q)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s / %v: strongerHeldBy = %v, want %v", trial, actor, q, got, want)
			}
			for i := range got {
				if !model.SamePrivilege(got[i], want[i]) {
					t.Fatalf("trial %d: %s / %v: strongerHeldBy = %v, want %v", trial, actor, q, got, want)
				}
			}
			just, ok := d.HeldStronger(actor, q)
			if ok != (len(want) > 0) || (ok && !model.SamePrivilege(just, want[0])) {
				t.Fatalf("trial %d: %s / %v: HeldStronger = %v, %v, want first of %v", trial, actor, q, just, ok, want)
			}
			// The fingerprint path, for queries that are commands. Two
			// sights pass the doorkeeper.
			c := command.Command{Actor: actor, Op: q.Op, From: q.Src, To: q.Dst}
			it.Command(c)
			if info := it.Command(c); info != nil && info.WellFormed() {
				fj, fok := d.AuthorizeFP(it, info, true)
				if fok != ok || (ok && !model.SamePrivilege(fj, just)) {
					t.Fatalf("trial %d: %v: AuthorizeFP = %v, %v, HeldStronger = %v, %v", trial, c, fj, fok, just, ok)
				}
				held := d.Holds(actor, q)
				if sj, sok := d.AuthorizeFP(it, info, false); sok != held || (sok && !model.SamePrivilege(sj, q)) {
					t.Fatalf("trial %d: %v: strict AuthorizeFP = %v, %v, Holds = %v", trial, c, sj, sok, held)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 24; trial++ {
		p := random(rng)
		if trial == 0 {
			p = cyclicPolicy(t)
		}
		d, it := NewDecider(p), command.NewInterner()
		check(trial, p, d, it, rng)
		// Vertices and edges added after the interned commands resolved
		// "late" as absent.
		p.Assign("late", roleNames[rng.Intn(len(roleNames))])
		p.AddInherit(roleNames[rng.Intn(len(roleNames))], "late")
		check(trial, p, d, it, rng)
	}
}
