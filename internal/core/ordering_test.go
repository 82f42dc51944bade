package core

import (
	"math/rand"
	"testing"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// fig2 returns the Figure 2 policy and a decider for it.
func fig2(t *testing.T) (*policy.Policy, *Decider) {
	t.Helper()
	p := policy.Figure2()
	return p, NewDecider(p)
}

func TestExample5Positive(t *testing.T) {
	// Example 5, first query: ¤(bob,staff) Ãφ ¤(bob,dbusr2) — needs
	// bob →φ bob (reflexivity) and staff →φ dbusr2 (hierarchy).
	_, d := fig2(t)
	strong := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	weak := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	if !d.Weaker(strong, weak) {
		t.Fatal("¤(bob,staff) Ã ¤(bob,dbusr2) does not hold")
	}
	// It also holds in one step (rule 2).
	if !d.WeakerOneStep(strong, weak) {
		t.Fatal("one-step derivation missing")
	}
	// The converse must fail: dbusr2 does not reach staff.
	if d.Weaker(weak, strong) {
		t.Fatal("ordering is not antisymmetric here: converse held")
	}
}

func TestExample5Nested(t *testing.T) {
	// Example 5, second query:
	// ¤(staff,¤(bob,staff)) Ã ¤(staff,¤(bob,dbusr2)) by rule (3) then (2).
	_, d := fig2(t)
	strong := model.Grant(model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	weak := model.Grant(model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)))
	if !d.Weaker(strong, weak) {
		t.Fatal("nested ordering query failed")
	}
	dv, ok := d.Explain(strong, weak)
	if !ok {
		t.Fatal("no derivation produced")
	}
	if dv.Rule != RuleNest {
		t.Fatalf("outer rule = %v, want rule 3", dv.Rule)
	}
	if dv.Premise == nil || dv.Premise.Rule != RuleEdge {
		t.Fatalf("premise rule = %+v, want rule 2", dv.Premise)
	}
	if err := d.CheckDerivation(dv); err != nil {
		t.Fatalf("derivation does not check: %v", err)
	}
}

func TestExample5Negative(t *testing.T) {
	// Example 5, third query: after removing the staff → dbusr2 edge the
	// relation no longer holds.
	p, _ := fig2(t)
	p.RemoveInherit(policy.RoleStaff, policy.RoleDBUsr2)
	d := NewDecider(p)
	strong := model.Grant(model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	weak := model.Grant(model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)))
	if d.Weaker(strong, weak) {
		t.Fatal("ordering held after removing staff→dbusr2")
	}
	if _, ok := d.Explain(strong, weak); ok {
		t.Fatal("derivation produced for non-relation")
	}
	// The flat query fails too.
	s2 := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	w2 := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	if d.Weaker(s2, w2) {
		t.Fatal("flat ordering held after removing staff→dbusr2")
	}
}

func TestDeciderInvalidatesOnMutation(t *testing.T) {
	p, d := fig2(t)
	strong := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	weak := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	if !d.Weaker(strong, weak) {
		t.Fatal("precondition failed")
	}
	p.RemoveInherit(policy.RoleStaff, policy.RoleDBUsr2)
	if d.Weaker(strong, weak) {
		t.Fatal("decider served stale result after policy mutation")
	}
	p.AddInherit(policy.RoleStaff, policy.RoleDBUsr2)
	if !d.Weaker(strong, weak) {
		t.Fatal("decider did not recover after edge restoration")
	}
}

func TestRevocationOrderedByEqualityOnly(t *testing.T) {
	_, d := fig2(t)
	rs := model.Revoke(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	rw := model.Revoke(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	if !d.Weaker(rs, rs) {
		t.Fatal("♦ not reflexive")
	}
	if d.Weaker(rs, rw) {
		t.Fatal("♦ privileges ordered beyond equality (paper leaves this to future work)")
	}
	// Mixed connectives never relate.
	gs := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	if d.Weaker(gs, rw) || d.Weaker(rs, gs) {
		t.Fatal("grant and revoke privileges related")
	}
}

func TestUserPrivilegeOrderedByEqualityOnly(t *testing.T) {
	_, d := fig2(t)
	q1 := policy.PermReadT1
	q2 := policy.PermReadT2
	if !d.Weaker(q1, q1) {
		t.Fatal("user privilege not reflexive")
	}
	if d.Weaker(q1, q2) {
		t.Fatal("distinct user privileges related")
	}
	// User privileges never relate to admin privileges (either direction).
	adm := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	if d.Weaker(q1, adm) || d.Weaker(adm, q1) {
		t.Fatal("user and admin privileges related")
	}
}

func TestHeldStrongerExample4(t *testing.T) {
	// Example 4: Jane holds ¤(bob,staff) through HR, so she is implicitly
	// authorized for the weaker ¤(bob,dbusr2).
	_, d := fig2(t)
	weak := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	h, ok := d.HeldStronger(policy.UserJane, weak)
	if !ok {
		t.Fatal("Jane has no stronger held privilege")
	}
	if h.Key() != policy.PrivHRAssignBobStaff.Key() {
		t.Errorf("justification = %v, want ¤(bob,staff)", h)
	}
	// Diana holds nothing administrative.
	if _, ok := d.HeldStronger(policy.UserDiana, weak); ok {
		t.Fatal("Diana implicitly authorized")
	}
	// All stronger held privileges for Alice include the HR one (inherited).
	all := strongerHeldBy(d, policy.UserAlice, weak)
	found := false
	for _, h := range all {
		if h.Key() == policy.PrivHRAssignBobStaff.Key() {
			found = true
		}
	}
	if !found {
		t.Errorf("Alice's stronger-held set %v misses ¤(bob,staff)", all)
	}
}

// example6Policy builds the Example 6 policy: roles r1, r2 and the
// assignment (r2, ¤(r1,r2)) ∈ PA.
func example6Policy(t *testing.T) *policy.Policy {
	t.Helper()
	p := policy.New()
	p.DeclareRole("r1")
	p.DeclareRole("r2")
	if _, err := p.GrantPrivilege("r2", model.Grant(model.Role("r1"), model.Role("r2"))); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExample6InfiniteChain(t *testing.T) {
	p := example6Policy(t)
	d := NewDecider(p)
	r1, r2 := model.Role("r1"), model.Role("r2")
	p0 := model.Grant(r1, r2) // ¤(r1,r2)
	p1 := model.Grant(r1, p0) // ¤(r1,¤(r1,r2))
	p2 := model.Grant(r1, p1) // ¤(r1,¤(r1,¤(r1,r2)))
	p3 := model.Grant(r1, p2)

	// The paper's chain: each is weaker than the previous.
	if !d.Weaker(p0, p1) {
		t.Fatal("¤(r1,r2) Ã ¤(r1,¤(r1,r2)) failed (rule 2 via privilege vertex)")
	}
	if !d.Weaker(p1, p2) {
		t.Fatal("second chain step failed (rule 3)")
	}
	// Transitivity: the deep terms are weaker than the original.
	if !d.Weaker(p0, p2) {
		t.Fatal("transitive chain step failed")
	}
	if !d.Weaker(p0, p3) {
		t.Fatal("depth-4 transitive chain step failed")
	}

	// Regression for DESIGN.md D3: the literal one-step relation derives the
	// first two steps but NOT the transitive composite, demonstrating that
	// Definition 8 as printed is not closed under transitivity.
	if !d.WeakerOneStep(p0, p1) {
		t.Fatal("one-step missed the Example 6 hop")
	}
	if !d.WeakerOneStep(p1, p2) {
		t.Fatal("one-step missed the rule 3 step")
	}
	if d.WeakerOneStep(p0, p2) {
		t.Fatal("one-step relation is unexpectedly transitive; D3 analysis is stale")
	}

	// Derivation for the hop names the via vertex.
	dv, ok := d.Explain(p0, p1)
	if !ok {
		t.Fatal("no derivation for the hop")
	}
	if dv.Rule != RuleHop || dv.Via == nil || dv.Via.Key() != p0.Key() {
		t.Fatalf("hop derivation = %v", dv)
	}
	if err := d.CheckDerivation(dv); err != nil {
		t.Fatalf("hop derivation does not check: %v", err)
	}
}

func TestWeakerSetExample6Growth(t *testing.T) {
	p := example6Policy(t)
	d := NewDecider(p)
	r1, r2 := model.Role("r1"), model.Role("r2")
	p0 := model.Grant(r1, r2)

	// At every extra unit of depth budget the weaker set strictly grows —
	// the finite shadow of Example 6's infinitude.
	prev := 0
	for bound := 1; bound <= 5; bound++ {
		ws := d.WeakerSet(p0, bound)
		if len(ws) <= prev {
			t.Fatalf("weaker set did not grow at bound %d: %d -> %d", bound, prev, len(ws))
		}
		// Everything enumerated must satisfy the decision procedure.
		for _, w := range ws {
			if !d.Weaker(p0, w) {
				t.Fatalf("enumerated non-weaker privilege %v at bound %d", w, bound)
			}
			if w.Depth() > bound {
				t.Fatalf("enumerated privilege %v exceeds depth bound %d", w, bound)
			}
		}
		prev = len(ws)
	}

	// Remark 2: with an empty RH the default bound is the privilege's own
	// depth, cutting the chain to the redundant-free core.
	if got := DefaultNestBound(p, p0); got != 1 {
		t.Fatalf("DefaultNestBound = %d, want 1", got)
	}
	ws := d.WeakerSet(p0, DefaultNestBound(p, p0))
	if len(ws) != 1 || ws[0].Key() != p0.Key() {
		t.Fatalf("bounded weaker set = %v, want just the privilege itself", ws)
	}
}

func TestWeakerSetFigure2(t *testing.T) {
	p, d := fig2(t)
	strong := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	ws := d.WeakerSet(strong, 1)
	keys := map[string]bool{}
	for _, w := range ws {
		keys[w.Key()] = true
	}
	for _, role := range []string{policy.RoleStaff, policy.RoleNurse, policy.RoleDBUsr1, policy.RoleDBUsr2, policy.RolePrntUsr} {
		want := model.Grant(model.User(policy.UserBob), model.Role(role))
		if !keys[want.Key()] {
			t.Errorf("weaker set missing ¤(bob,%s)", role)
		}
	}
	if len(ws) != 5 {
		t.Errorf("weaker set size = %d, want 5: %v", len(ws), ws)
	}
	// Soundness against the decision procedure.
	for _, w := range ws {
		if !d.Weaker(strong, w) {
			t.Errorf("enumerated non-weaker %v", w)
		}
	}
	// Remark 2 default bound for this policy: depth 1 + longest chain 2 = 3.
	if got := DefaultNestBound(p, strong); got != 3 {
		t.Errorf("DefaultNestBound = %d, want 3", got)
	}
}

func TestWeakerSetCompletenessSmall(t *testing.T) {
	// Exhaustively cross-check enumeration against the decision procedure on
	// a small candidate space.
	p, d := fig2(t)
	strong := model.Grant(model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	const bound = 2
	ws := map[string]bool{}
	for _, w := range d.WeakerSet(strong, bound) {
		ws[w.Key()] = true
	}
	// Candidate space: ¤(x, ¤(u, r)) and ¤(x, r) over the policy's entities.
	var cands []model.Privilege
	for _, rn := range p.Roles() {
		cands = append(cands, model.Grant(model.Role(policy.RoleStaff), model.Role(rn)))
		for _, rn2 := range p.Roles() {
			cands = append(cands,
				model.Grant(model.Role(rn), model.Grant(model.User(policy.UserBob), model.Role(rn2))))
		}
	}
	for _, c := range cands {
		got := d.Weaker(strong, c)
		if got != ws[c.Key()] {
			t.Errorf("decision/enumeration mismatch for %v: weaker=%v enumerated=%v", c, got, ws[c.Key()])
		}
	}
}

// randomPolicy builds a random layered policy for property tests.
func randomPolicy(rng *rand.Rand, nUsers, nRoles, nPerms int) *policy.Policy {
	p := policy.New()
	roles := make([]string, nRoles)
	for i := range roles {
		roles[i] = "role" + string(rune('A'+i))
		p.DeclareRole(roles[i])
	}
	users := make([]string, nUsers)
	for i := range users {
		users[i] = "user" + string(rune('a'+i))
		p.Assign(users[i], roles[rng.Intn(nRoles)])
	}
	// Downward random hierarchy edges (acyclic by index ordering).
	for i := 0; i < nRoles; i++ {
		for j := i + 1; j < nRoles; j++ {
			if rng.Intn(3) == 0 {
				p.AddInherit(roles[i], roles[j])
			}
		}
	}
	for i := 0; i < nPerms; i++ {
		q := model.Perm("act"+string(rune('0'+i)), "obj")
		if _, err := p.GrantPrivilege(roles[rng.Intn(nRoles)], q); err != nil {
			panic(err)
		}
	}
	// Random admin privileges, some nested.
	for i := 0; i < nRoles; i++ {
		src := model.User(users[rng.Intn(nUsers)])
		var inner model.Privilege = model.Grant(src, model.Role(roles[rng.Intn(nRoles)]))
		depth := rng.Intn(3)
		for k := 0; k < depth; k++ {
			inner = model.Grant(model.Role(roles[rng.Intn(nRoles)]), inner)
		}
		if _, err := p.GrantPrivilege(roles[rng.Intn(nRoles)], inner); err != nil {
			panic(err)
		}
	}
	return p
}

func TestOrderingIsPreorderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p := randomPolicy(rng, 3, 6, 4)
		d := NewDecider(p)
		privs := p.PrivilegeVertices()
		// Extend the sample with weaker terms to exercise nesting.
		sample := append([]model.Privilege{}, privs...)
		for _, pv := range privs {
			ws := d.WeakerSet(pv, pv.Depth()+1)
			if len(ws) > 4 {
				ws = ws[:4]
			}
			sample = append(sample, ws...)
		}
		// Reflexivity.
		for _, a := range sample {
			if !d.Weaker(a, a) {
				t.Fatalf("trial %d: not reflexive on %v", trial, a)
			}
		}
		// Transitivity.
		for _, a := range sample {
			for _, b := range sample {
				if !d.Weaker(a, b) {
					continue
				}
				for _, c := range sample {
					if d.Weaker(b, c) && !d.Weaker(a, c) {
						t.Fatalf("trial %d: transitivity fails: %v Ã %v Ã %v", trial, a, b, c)
					}
				}
			}
		}
		// One-step is contained in the preorder.
		for _, a := range sample {
			for _, b := range sample {
				if d.WeakerOneStep(a, b) && !d.Weaker(a, b) {
					t.Fatalf("trial %d: one-step not contained: %v vs %v", trial, a, b)
				}
			}
		}
	}
}

func TestExplainAgreesWithWeakerRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		p := randomPolicy(rng, 3, 5, 3)
		d := NewDecider(p)
		privs := p.PrivilegeVertices()
		var sample []model.Privilege
		for _, pv := range privs {
			sample = append(sample, pv)
			ws := d.WeakerSet(pv, pv.Depth()+1)
			if len(ws) > 3 {
				ws = ws[:3]
			}
			sample = append(sample, ws...)
		}
		for _, a := range sample {
			for _, b := range sample {
				dv, ok := d.Explain(a, b)
				if ok != d.Weaker(a, b) {
					t.Fatalf("trial %d: Explain/Weaker disagree on %v, %v", trial, a, b)
				}
				if ok {
					if err := d.CheckDerivation(dv); err != nil {
						t.Fatalf("trial %d: derivation fails check: %v", trial, err)
					}
				}
			}
		}
	}
}

func TestCheckDerivationRejectsCorrupt(t *testing.T) {
	_, d := fig2(t)
	strong := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))
	weak := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	dv, ok := d.Explain(strong, weak)
	if !ok {
		t.Fatal("setup failed")
	}
	// Corrupt: claim reflexivity between distinct terms.
	bad := &Derivation{Rule: RuleRefl, Strong: strong, Weak: weak}
	if err := d.CheckDerivation(bad); err == nil {
		t.Fatal("corrupt reflexivity accepted")
	}
	// Corrupt: swap the direction of a rule 2 node.
	bad2 := &Derivation{Rule: RuleEdge, Strong: weak, Weak: strong}
	if err := d.CheckDerivation(bad2); err == nil {
		t.Fatal("reversed rule 2 node accepted")
	}
	// Corrupt: missing premise.
	bad3 := &Derivation{Rule: RuleNest, Strong: strong, Weak: weak}
	if err := d.CheckDerivation(bad3); err == nil {
		t.Fatal("premise-less rule 3 node accepted")
	}
	_ = dv
}

func TestWeakerNilSafety(t *testing.T) {
	_, d := fig2(t)
	if d.Weaker(nil, policy.PermReadT1) || d.Weaker(policy.PermReadT1, nil) || d.Weaker(nil, nil) {
		t.Fatal("nil privileges related")
	}
	if d.WeakerOneStep(nil, policy.PermReadT1) {
		t.Fatal("nil one-step related")
	}
	if got := d.WeakerSet(nil, 3); got != nil {
		t.Fatal("weaker set of nil nonempty")
	}
}
