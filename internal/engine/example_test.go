package engine_test

import (
	"fmt"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Snapshot isolation under a concurrent writer: a reader that acquired a
// snapshot keeps seeing its generation — unchanged, consistent — while the
// writer publishes new state. New readers see the new generation at once.
func Example_snapshotReadUnderWrite() {
	p := policy.New()
	p.Assign("root", "admins")
	p.Assign("alice", "member")
	p.DeclareRole("team")
	if _, err := p.GrantPrivilege("admins", model.Grant(model.Role("member"), model.Role("team"))); err != nil {
		panic(err)
	}
	e := engine.New(p, engine.Refined)

	// A long-lived reader pins generation 0.
	old := e.Snapshot()
	defer old.Close()

	// The writer runs an administrative transition (Definition 5): root may
	// assign alice because ¤(alice, team) is weaker than the held
	// ¤(member, team) — alice is a member.
	res := e.Submit(command.Grant("root", model.User("alice"), model.Role("team")))
	fmt.Println("submit:", res.Outcome)

	cur := e.Snapshot()
	defer cur.Close()
	fmt.Printf("gen %d sees alice in team: %v\n", old.Generation(), old.Policy().HasEdge(model.User("alice"), model.Role("team")))
	fmt.Printf("gen %d sees alice in team: %v\n", cur.Generation(), cur.Policy().HasEdge(model.User("alice"), model.Role("team")))

	// Output:
	// submit: applied
	// gen 0 sees alice in team: false
	// gen 1 sees alice in team: true
}

// One round-trip, many decisions: AuthorizeBatchInto decides a whole batch
// against a single snapshot with one borrowed decider.
func ExampleSnapshot_AuthorizeBatchInto() {
	p := policy.New()
	p.Assign("root", "admins")
	p.Assign("alice", "member")
	p.Assign("bob", "member")
	p.DeclareRole("team")
	if _, err := p.GrantPrivilege("admins", model.Grant(model.Role("member"), model.Role("team"))); err != nil {
		panic(err)
	}
	e := engine.New(p, engine.Refined)

	s := e.Snapshot()
	defer s.Close()
	results := s.AuthorizeBatchInto([]command.Command{
		command.Grant("root", model.User("alice"), model.Role("team")),
		command.Grant("root", model.User("bob"), model.Role("team")),
		command.Grant("bob", model.User("alice"), model.Role("team")), // bob holds nothing
	}, nil)
	for _, r := range results {
		fmt.Println(r.OK)
	}

	// Output:
	// true
	// true
	// false
}
