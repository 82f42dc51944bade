package command

import (
	"strings"
	"testing"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

func TestCommandStringAndKey(t *testing.T) {
	c := Grant("jane", model.User("bob"), model.Role("staff"))
	if got := c.String(); got != "cmd(jane, grant, bob, staff)" {
		t.Errorf("String = %q", got)
	}
	r := Revoke("jane", model.User("joe"), model.Role("nurse"))
	if got := r.String(); got != "cmd(jane, revoke, joe, nurse)" {
		t.Errorf("String = %q", got)
	}
	if c.Key() == r.Key() {
		t.Error("distinct commands share a key")
	}
	if c.Key() != Grant("jane", model.User("bob"), model.Role("staff")).Key() {
		t.Error("equal commands have different keys")
	}
	empty := Command{}
	if !strings.Contains(empty.String(), "<nil>") {
		t.Error("zero command String should be diagnostic")
	}
}

func TestCommandPrivilege(t *testing.T) {
	c := Grant("jane", model.User("bob"), model.Role("staff"))
	priv, err := c.Privilege()
	if err != nil {
		t.Fatal(err)
	}
	want := model.Grant(model.User("bob"), model.Role("staff"))
	if priv.Key() != want.Key() {
		t.Errorf("Privilege = %v, want %v", priv, want)
	}

	// Edge source must be an entity.
	bad := Grant("jane", model.Perm("a", "b"), model.Role("r"))
	if _, err := bad.Privilege(); err == nil {
		t.Error("privilege-source command accepted")
	}
	// Empty actor.
	actorless := Command{Op: model.OpGrant, From: model.User("a"), To: model.Role("b")}
	if _, err := actorless.Privilege(); err == nil {
		t.Error("actorless command accepted")
	}
	// Ungrammatical edge: user -> user privilege.
	bad2 := Grant("jane", model.User("bob"), model.Perm("a", "b"))
	if err := bad2.Validate(); err == nil {
		t.Error("ungrammatical command validated")
	}
}

func TestQueueString(t *testing.T) {
	if got := (Queue{}).String(); got != "ε" {
		t.Errorf("empty queue = %q", got)
	}
	q := Queue{Grant("a", model.User("u"), model.Role("r"))}
	if got := q.String(); got != "cmd(a, grant, u, r) : ε" {
		t.Errorf("queue = %q", got)
	}
}

func TestStrictAuthorizationExample2(t *testing.T) {
	// Example 2: members of HR can appoint new staff members or nurses.
	p := policy.Figure2()

	// Jane (HR) may assign Bob to staff.
	c := Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	just, ok := (Strict{}).Authorize(p, c)
	if !ok {
		t.Fatal("Jane's authorized command denied")
	}
	if just.Key() != policy.PrivHRAssignBobStaff.Key() {
		t.Errorf("justification = %v", just)
	}

	// Diana (no admin privileges) may not.
	d := Grant(policy.UserDiana, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	if _, ok := (Strict{}).Authorize(p, d); ok {
		t.Fatal("Diana's unauthorized command allowed")
	}

	// Alice inherits HR's privileges through SO -> HR.
	a := Grant(policy.UserAlice, model.User(policy.UserJoe), model.Role(policy.RoleNurse))
	if _, ok := (Strict{}).Authorize(p, a); !ok {
		t.Fatal("Alice's inherited command denied")
	}

	// Strict does NOT authorize the weaker command of Example 4: Jane
	// assigning Bob directly to dbusr2 requires the ordering.
	w := Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	if _, ok := (Strict{}).Authorize(p, w); ok {
		t.Fatal("strict authorizer allowed the ordering-only command")
	}
}

func TestStepDefinition5(t *testing.T) {
	p := policy.Figure2()

	// Authorized grant: edge appears.
	c := Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	res := Step(p, c, Strict{})
	if res.Outcome != Applied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !p.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleStaff)) {
		t.Fatal("edge not added")
	}

	// Same command again: φ ∪ (v,v') unchanged.
	res = Step(p, c, Strict{})
	if res.Outcome != AppliedNoChange {
		t.Fatalf("repeat outcome = %v", res.Outcome)
	}

	// Unauthorized command consumed without change (Def. 5 third case).
	before := p.Clone()
	d := Grant(policy.UserDiana, model.User(policy.UserJoe), model.Role(policy.RoleNurse))
	res = Step(p, d, Strict{})
	if res.Outcome != Denied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !p.Equal(before) {
		t.Fatal("denied command changed the policy")
	}

	// Ill-formed command consumed without change.
	bad := Grant(policy.UserJane, model.User(policy.UserBob), model.User(policy.UserJoe))
	res = Step(p, bad, Strict{})
	if res.Outcome != IllFormed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !p.Equal(before) {
		t.Fatal("ill-formed command changed the policy")
	}
}

func TestRevocationStep(t *testing.T) {
	p := policy.Figure2()
	p.Assign(policy.UserJoe, policy.RoleNurse)

	// Jane may revoke Joe from nurse (♦(joe,nurse) held by HR).
	c := Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse))
	res := Step(p, c, Strict{})
	if res.Outcome != Applied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if p.HasEdge(model.User(policy.UserJoe), model.Role(policy.RoleNurse)) {
		t.Fatal("edge not removed")
	}
	// Revoking an absent edge: authorized, no change.
	res = Step(p, c, Strict{})
	if res.Outcome != AppliedNoChange {
		t.Fatalf("outcome = %v", res.Outcome)
	}

	// Jane may NOT revoke Diana from nurse (no ♦(diana,nurse) anywhere).
	d := Revoke(policy.UserJane, model.User(policy.UserDiana), model.Role(policy.RoleNurse))
	if res := Step(p, d, Strict{}); res.Outcome != Denied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestRunTraceExample2(t *testing.T) {
	// Example 2 scenario: HR appoints Bob to staff and Joe to nurse, then
	// dismisses Joe; Diana's rogue command is denied.
	p := policy.Figure2()
	q := Queue{
		Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)),
		Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		Grant(policy.UserDiana, model.User(policy.UserDiana), model.Role(policy.RoleSO)),
		Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
	}
	final, trace := RunOn(p, q, Strict{})
	if len(trace) != 4 {
		t.Fatalf("trace length %d", len(trace))
	}
	wantOutcomes := []Outcome{Applied, Applied, Denied, Applied}
	for i, w := range wantOutcomes {
		if trace[i].Outcome != w {
			t.Errorf("step %d outcome = %v, want %v", i, trace[i].Outcome, w)
		}
	}
	// RunOn must not mutate the input.
	if p.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleStaff)) {
		t.Fatal("RunOn mutated its input policy")
	}
	// Final state: Bob in staff, Joe not in nurse, Diana not SO.
	if !final.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleStaff)) {
		t.Error("bob not staff in final policy")
	}
	if final.HasEdge(model.User(policy.UserJoe), model.Role(policy.RoleNurse)) {
		t.Error("joe still nurse in final policy")
	}
	if final.HasEdge(model.User(policy.UserDiana), model.Role(policy.RoleSO)) {
		t.Error("diana became SO")
	}
}

func TestNestedPrivilegeDelegationRun(t *testing.T) {
	// Alice exercises ¤(staff, ¤(bob,staff)): she gives staff the privilege
	// to appoint Bob; afterwards Diana (a staff member) can appoint Bob.
	p := policy.Figure2()
	inner := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleStaff))

	// Before delegation Diana cannot appoint Bob.
	appoint := Grant(policy.UserDiana, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	if _, ok := (Strict{}).Authorize(p, appoint); ok {
		t.Fatal("Diana could appoint before delegation")
	}

	delegate := Grant(policy.UserAlice, model.Role(policy.RoleStaff), inner)
	if res := Step(p, delegate, Strict{}); res.Outcome != Applied {
		t.Fatalf("delegation outcome = %v", res.Outcome)
	}
	if res := Step(p, appoint, Strict{}); res.Outcome != Applied {
		t.Fatalf("post-delegation appoint outcome = %v", res.Outcome)
	}
	if !p.HasEdge(model.User(policy.UserBob), model.Role(policy.RoleStaff)) {
		t.Fatal("bob not assigned to staff")
	}
}

func TestApplyIllSorted(t *testing.T) {
	p := policy.New()
	if _, err := Apply(p, Grant("x", model.User("a"), model.User("b"))); err == nil {
		t.Fatal("ill-sorted apply accepted")
	}
	if _, err := Apply(p, Command{Actor: "x", From: model.User("a"), To: model.Role("b")}); err == nil {
		t.Fatal("op-less apply accepted")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Applied: "applied", AppliedNoChange: "applied (no change)",
		Denied: "denied", IllFormed: "ill-formed",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q", o, o.String())
		}
	}
	if !strings.Contains(Outcome(99).String(), "Outcome(") {
		t.Error("unknown outcome not diagnostic")
	}
}
