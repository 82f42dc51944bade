package core

import (
	"math/rand"
	"testing"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

func TestNonAdminRefinesExample3(t *testing.T) {
	base := policy.Figure1()

	// "By removing any of the edges in the policy one obtains a refinement."
	for _, e := range base.Edges() {
		psi := base.Clone()
		if _, err := psi.RemoveEdge(e.From, e.To); err != nil {
			t.Fatalf("removing %v: %v", e, err)
		}
		if !NonAdminRefines(base, psi) {
			t.Errorf("removing edge %v did not refine", e)
		}
	}

	// "If we replace the edge between Diana and staff with an edge between
	// Diana and nurse, then we have another refinement."
	psi := base.Clone()
	psi.Deassign(policy.UserDiana, policy.RoleStaff)
	psi.Assign(policy.UserDiana, policy.RoleNurse)
	if !NonAdminRefines(base, psi) {
		t.Error("rearranged Diana edge did not refine")
	}

	// "If we replace the edge between nurse and dbusr1 with an edge between
	// nurse and dbusr2, we do not obtain a refinement, as nurses get more
	// privileges."
	psi2 := base.Clone()
	psi2.RemoveInherit(policy.RoleNurse, policy.RoleDBUsr1)
	psi2.AddInherit(policy.RoleNurse, policy.RoleDBUsr2)
	if NonAdminRefines(base, psi2) {
		t.Error("nurse→dbusr2 rearrangement wrongly accepted as refinement")
	}
	vs := NonAdminViolations(base, psi2, 0)
	if len(vs) == 0 {
		t.Fatal("no violations reported")
	}
	// The witness must be the nurse (or someone who reaches her) gaining
	// write access to t3.
	foundNurse := false
	for _, v := range vs {
		if v.Perm.Key() != policy.PermWriteT3.Key() {
			t.Errorf("unexpected violation perm %v", v.Perm)
		}
		if v.Entity == model.Role(policy.RoleNurse) {
			foundNurse = true
		}
	}
	if !foundNurse {
		t.Errorf("violations %v do not include the nurse role", vs)
	}
}

func TestNonAdminRefinesReflexiveAndMutual(t *testing.T) {
	p := policy.Figure2()
	if !NonAdminRefines(p, p) {
		t.Fatal("refinement not reflexive")
	}
	if !MutuallyNonAdminRefine(p, p.Clone()) {
		t.Fatal("clone not mutually refining")
	}
	// Swapping an admin privilege for a weaker one leaves user privileges
	// untouched: both directions hold.
	psi, err := WeakenAssignment(p, Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !MutuallyNonAdminRefine(p, psi) {
		t.Fatal("admin-only weakening changed user privileges")
	}
}

func TestNonAdminRefinementTransitivityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		a := randomPolicy(rng, 3, 6, 5)
		b := a.Clone()
		// Remove a few random edges to get b with a ⊒ b.
		edges := b.Edges()
		for i := 0; i < 2 && len(edges) > 0; i++ {
			e := edges[rng.Intn(len(edges))]
			if _, err := b.RemoveEdge(e.From, e.To); err != nil {
				t.Fatal(err)
			}
		}
		c := b.Clone()
		edges = c.Edges()
		for i := 0; i < 2 && len(edges) > 0; i++ {
			e := edges[rng.Intn(len(edges))]
			if _, err := c.RemoveEdge(e.From, e.To); err != nil {
				t.Fatal(err)
			}
		}
		if !NonAdminRefines(a, b) || !NonAdminRefines(b, c) {
			t.Fatal("edge removal did not refine")
		}
		if !NonAdminRefines(a, c) {
			t.Fatal("refinement not transitive")
		}
	}
}

func TestWeakenAssignmentValidation(t *testing.T) {
	p := policy.Figure2()
	// Unknown assignment.
	if _, err := WeakenAssignment(p, Weakening{
		Role:   policy.RoleHR,
		Strong: model.Grant(model.User("ghost"), model.Role(policy.RoleStaff)),
		Weak:   policy.PrivHRAssignBobStaff,
	}); err == nil {
		t.Fatal("weakening of absent assignment accepted")
	}
	// Non-weaker replacement.
	if _, err := WeakenAssignment(p, Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleSO)),
	}); err == nil {
		t.Fatal("non-weaker replacement accepted")
	}
	// Valid weakening replaces the edge.
	weak := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleNurse))
	psi, err := WeakenAssignment(p, Weakening{
		Role: policy.RoleHR, Strong: policy.PrivHRAssignBobStaff, Weak: weak,
	})
	if err != nil {
		t.Fatal(err)
	}
	if psi.HasEdge(model.Role(policy.RoleHR), policy.PrivHRAssignBobStaff) {
		t.Fatal("strong assignment still present")
	}
	if !psi.HasEdge(model.Role(policy.RoleHR), weak) {
		t.Fatal("weak assignment missing")
	}
	if p.HasEdge(model.Role(policy.RoleHR), weak) {
		t.Fatal("input policy mutated")
	}
}

func TestRelevantCommands(t *testing.T) {
	p := policy.Figure2()
	cmds := RelevantCommands(p, nil, []string{policy.UserJane})
	if len(cmds) == 0 {
		t.Fatal("no relevant commands")
	}
	keys := map[string]bool{}
	for _, c := range cmds {
		if c.Actor != policy.UserJane {
			t.Errorf("unexpected actor %s", c.Actor)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("relevant command %v invalid: %v", c, err)
		}
		keys[c.Key()] = true
	}
	// The nested privilege's inner subterm must yield a command.
	inner := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	if !keys[inner.Key()] {
		t.Error("subterm command missing from alphabet")
	}
	// The nested privilege itself yields a delegation command.
	outer := command.Grant(policy.UserJane, model.Role(policy.RoleStaff),
		model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	if !keys[outer.Key()] {
		t.Error("nested privilege command missing from alphabet")
	}
	// Default actors are the union of the policies' users.
	all := RelevantCommands(p, nil, nil)
	actors := map[string]bool{}
	for _, c := range all {
		actors[c.Actor] = true
	}
	for _, u := range p.Users() {
		if !actors[u] {
			t.Errorf("default actor set missing %s", u)
		}
	}
}

func TestBoundedAdminRefinesIdentity(t *testing.T) {
	p := policy.Figure2()
	alpha := RelevantCommands(p, nil, []string{policy.UserJane})
	for _, dir := range []Direction{DirPaper, DirSimulation} {
		res := BoundedAdminRefines(p, p.Clone(), BoundedAdminOptions{
			MaxLen: 2, Alphabet: alpha, Direction: dir,
		})
		if !res.Holds {
			t.Fatalf("identity not admin-refining (%v): %v", dir, res.Counterexample)
		}
		if res.Truncated {
			t.Fatalf("identity check truncated (%v)", dir)
		}
		if res.QueuesExplored < len(alpha) {
			t.Fatalf("explored only %d queues", res.QueuesExplored)
		}
	}
}

func TestBoundedAdminRefinesRejectsNonRefinement(t *testing.T) {
	// ψ grants nurses write access to t3: not even a non-administrative
	// refinement, so the empty queue is a counterexample.
	p := policy.Figure2()
	psi := p.Clone()
	if _, err := psi.GrantPrivilege(policy.RoleNurse, policy.PermWriteT3); err != nil {
		t.Fatal(err)
	}
	res := BoundedAdminRefines(p, psi, BoundedAdminOptions{MaxLen: 1,
		Alphabet: RelevantCommands(p, psi, []string{policy.UserJane})})
	if res.Holds {
		t.Fatal("non-refinement accepted")
	}
	if len(res.Counterexample.Queue) != 0 {
		t.Fatalf("counterexample should be the empty queue, got %v", res.Counterexample.Queue)
	}
	if len(res.Counterexample.Violations) == 0 {
		t.Fatal("counterexample lacks violations")
	}
}

func TestTheorem1BoundedFigure2(t *testing.T) {
	// Theorem 1 on the running example: replacing HR's ¤(bob,staff) by the
	// weaker ¤(bob,dbusr2) yields an administrative refinement. Checked
	// exhaustively for queues up to length 2 over Jane's and Alice's
	// relevant commands, in both Definition 7 readings.
	phi := policy.Figure2()
	w := Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	}
	psi, err := WeakenAssignment(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	alpha := RelevantCommands(phi, psi, []string{policy.UserJane, policy.UserAlice})
	for _, dir := range []Direction{DirPaper, DirSimulation} {
		res := BoundedAdminRefines(phi, psi, BoundedAdminOptions{
			MaxLen: 2, Alphabet: alpha, Direction: dir, MaxStates: 2048,
		})
		if res.Truncated {
			t.Fatalf("truncated (%v); raise MaxStates", dir)
		}
		if !res.Holds {
			t.Fatalf("Theorem 1 weakening rejected (%v): %v", dir, res.Counterexample)
		}
	}
}

func TestRevocationAsymmetryUnderPrintedDefinition(t *testing.T) {
	// Dropping a revocation privilege is NOT an administrative refinement
	// under the printed Definition 7 (∀φ ∃ψ): when φ revokes joe from nurse,
	// ψ cannot follow, so ψ' keeps privileges φ' lost. Under the informal
	// simulation reading it IS a refinement (ψ can only do less). This
	// asymmetry is exactly why the paper's §6 calls a revocation ordering
	// future work; see EXPERIMENTS.md.
	phi := policy.Figure2()
	phi.Assign(policy.UserJoe, policy.RoleNurse)
	psi := phi.Clone()
	psi.RevokePrivilege(policy.RoleHR, policy.PrivHRRevokeJoeNurse)

	alpha := RelevantCommands(phi, psi, []string{policy.UserJane})
	resPaper := BoundedAdminRefines(phi, psi, BoundedAdminOptions{
		MaxLen: 1, Alphabet: alpha, Direction: DirPaper,
	})
	if resPaper.Holds {
		t.Fatal("printed Definition 7 accepted the dropped revocation privilege")
	}
	if resPaper.Truncated {
		t.Fatal("truncated")
	}
	// The counterexample must be Jane's revocation command.
	if len(resPaper.Counterexample.Queue) != 1 || resPaper.Counterexample.Queue[0].Op != model.OpRevoke {
		t.Fatalf("counterexample queue = %v", resPaper.Counterexample.Queue)
	}

	resSim := BoundedAdminRefines(phi, psi, BoundedAdminOptions{
		MaxLen: 1, Alphabet: alpha, Direction: DirSimulation,
	})
	if !resSim.Holds {
		t.Fatalf("simulation reading rejected the strictly-less-capable policy: %v", resSim.Counterexample)
	}
}

func TestSimulateWeakeningFigure2(t *testing.T) {
	phi := policy.Figure2()
	w := Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	}
	queue := command.Queue{
		command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)),
		command.Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		command.Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
	}
	phiF, psiF, steps, err := SimulateWeakening(phi, w, queue)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	// Step 1 exercises the replaced privilege: must be translated.
	if steps[0].Kind != "translate" {
		t.Errorf("step 1 kind = %s, want translate", steps[0].Kind)
	}
	if steps[0].PsiStep.Outcome != command.Applied {
		t.Errorf("translated command not applied: %v", steps[0].PsiStep.Outcome)
	}
	// Steps 2–3 are untouched by the weakening: mirrored.
	if steps[1].Kind != "mirror" || steps[2].Kind != "mirror" {
		t.Errorf("steps 2,3 kinds = %s,%s", steps[1].Kind, steps[2].Kind)
	}
	// The final states satisfy φ' º ψ' (Theorem 1's conclusion).
	if !NonAdminRefines(phiF, psiF) {
		t.Fatalf("simulation broke refinement: %v", NonAdminViolations(phiF, psiF, 5))
	}
	// ψ's run put Bob into dbusr2 instead of staff: least privilege applied
	// for him (Example 4's punchline).
	if !psiF.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)) {
		t.Error("ψ final state misses bob→dbusr2")
	}
	if psiF.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleStaff)) {
		t.Error("ψ final state has bob→staff")
	}
	// The response queue is same-length, same-actors.
	resp := ResponseQueue(steps)
	if len(resp) != len(queue) {
		t.Fatal("response queue length mismatch")
	}
	for i := range resp {
		if resp[i].Actor != queue[i].Actor {
			t.Errorf("actor mismatch at %d", i)
		}
	}
}

func TestSimulateWeakeningRandomized(t *testing.T) {
	// Theorem 1 validation at scale: random policies, random weakenings,
	// random φ-queues; the constructed response must always land in a
	// refining state.
	rng := rand.New(rand.NewSource(2024))
	trials, simulated := 0, 0
	for trial := 0; trial < 40; trial++ {
		phi := randomPolicy(rng, 3, 6, 4)
		d := NewDecider(phi)
		privs := phi.PrivilegeVertices()
		if len(privs) == 0 {
			continue
		}
		// Pick an admin assignment to weaken.
		var w *Weakening
		for _, pv := range privs {
			a, ok := pv.(model.AdminPrivilege)
			if !ok || a.Op != model.OpGrant {
				continue
			}
			ws := d.WeakerSet(pv, pv.Depth()+1)
			if len(ws) < 2 {
				continue
			}
			weakPick := ws[1+rng.Intn(len(ws)-1)]
			// Find a role assigned this privilege.
			for _, e := range phi.EdgesOf(policy.EdgePA) {
				if e.To.Key() == pv.Key() {
					w = &Weakening{Role: e.From.String(), Strong: pv, Weak: weakPick}
					break
				}
			}
			if w != nil {
				break
			}
		}
		if w == nil {
			continue
		}
		trials++
		psi, err := WeakenAssignment(phi, *w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alpha := RelevantCommands(phi, psi, nil)
		if len(alpha) == 0 {
			continue
		}
		for qi := 0; qi < 5; qi++ {
			qlen := 1 + rng.Intn(4)
			queue := make(command.Queue, qlen)
			for i := range queue {
				queue[i] = alpha[rng.Intn(len(alpha))]
			}
			phiF, psiF, _, err := SimulateWeakening(phi, *w, queue)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			simulated++
			if !NonAdminRefines(phiF, psiF) {
				t.Fatalf("trial %d queue %v: Theorem 1 simulation violated refinement: %v",
					trial, queue, NonAdminViolations(phiF, psiF, 5))
			}
		}
	}
	if trials == 0 || simulated == 0 {
		t.Fatal("randomized Theorem 1 test exercised no instances")
	}
}

func TestNoopCommandIsAlwaysDenied(t *testing.T) {
	p := policy.Figure2()
	c := noopCommand(policy.UserAlice)
	if err := c.Validate(); err != nil {
		t.Fatalf("noop command ill-formed: %v", err)
	}
	res := command.Step(p.Clone(), c, command.Strict{})
	if res.Outcome != command.Denied {
		t.Fatalf("noop command outcome = %v, want denied", res.Outcome)
	}
}

func TestRefinedAuthorizerExample4(t *testing.T) {
	// The flexworker scenario end to end: strict denies Jane's direct
	// assignment of Bob to dbusr2, refined allows it, and the refined
	// outcome refines the strict outcome.
	p := policy.Figure2()
	direct := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))

	if _, ok := (command.Strict{}).Authorize(p, direct); ok {
		t.Fatal("strict authorizer allowed the direct assignment")
	}
	ra := NewRefinedAuthorizer(p)
	just, ok := ra.Authorize(p, direct)
	if !ok {
		t.Fatal("refined authorizer denied the direct assignment")
	}
	if just.Key() != policy.PrivHRAssignBobStaff.Key() {
		t.Errorf("justification = %v", just)
	}

	// Refined accepts everything strict accepts (rule 1).
	for _, c := range RelevantCommands(p, nil, nil) {
		if _, sok := (command.Strict{}).Authorize(p, c); sok {
			if _, rok := ra.Authorize(p, c); !rok {
				t.Errorf("refined rejected strict-authorized %v", c)
			}
		}
	}

	// Execute both worlds; the refined outcome grants Bob strictly fewer
	// privileges than the strict-world alternative (staff membership).
	strictWorld := p.Clone()
	command.Step(strictWorld, command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)), command.Strict{})
	refinedWorld := p.Clone()
	res := command.Step(refinedWorld, direct, NewRefinedAuthorizer(refinedWorld))
	if res.Outcome != command.Applied {
		t.Fatalf("refined execution outcome = %v", res.Outcome)
	}
	if !NonAdminRefines(strictWorld, refinedWorld) {
		t.Fatal("refined outcome does not refine the strict outcome")
	}
	// And strictly fewer: bob cannot reach the nurse's medical privileges.
	if refinedWorld.Reaches(model.User(policy.UserBob), policy.PermPrntBlack) {
		t.Error("bob gained nurse privileges in the refined world")
	}
	if !refinedWorld.Reaches(model.User(policy.UserBob), policy.PermWriteT3) {
		t.Error("bob lacks the dbusr2 privilege he needs")
	}
}

func TestRefinedAuthorizerName(t *testing.T) {
	p := policy.Figure2()
	ra := NewRefinedAuthorizer(p)
	if ra.Name() != "refined" || (command.Strict{}).Name() != "strict" {
		t.Fatal("authorizer names wrong")
	}
	// Authorize against a different policy object falls back gracefully.
	other := policy.Figure2()
	if _, ok := ra.Authorize(other, command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))); !ok {
		t.Fatal("cross-policy authorization failed")
	}
}

func TestTheorem1UnderRefinedAuthorizer(t *testing.T) {
	// Theorem 1 under the ordering-based regime of §4.1: with both runs
	// authorized by the refined check, the weakened policy must still track
	// the original. This holds because the ordering is transitive — every
	// command ψ's weaker privilege authorizes is also authorized by φ's
	// stronger one.
	phi := policy.Figure2()
	w := Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	}
	psi, err := WeakenAssignment(phi, w)
	if err != nil {
		t.Fatal(err)
	}
	alpha := RelevantCommands(phi, psi, []string{policy.UserJane})
	for _, dir := range []Direction{DirPaper, DirSimulation} {
		res := BoundedAdminRefines(phi, psi, BoundedAdminOptions{
			MaxLen:     1,
			Alphabet:   alpha,
			Direction:  dir,
			Authorizer: NewRefinedAuthorizer(phi),
		})
		if res.Truncated {
			t.Fatalf("truncated (%v)", dir)
		}
		if !res.Holds {
			t.Fatalf("Theorem 1 fails under refined authorization (%v): %v", dir, res.Counterexample)
		}
	}
}
