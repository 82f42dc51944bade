// Hospital: the paper's Figure 2 / Example 2 — Alice the security officer
// delegates appointment authority to HR via administrative privileges, HR
// exercises it through the transition function of Definition 5, and the
// whole run is persisted to a write-ahead log and recovered.
package main

import (
	"fmt"
	"log"
	"os"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/monitor"
	"adminrefine/internal/policy"
	"adminrefine/internal/storage"
)

func main() {
	p := policy.Figure2()
	fmt.Println("Alice's administrative policy (Figure 2):")
	stats := p.Stats()
	fmt.Printf("  %d users, %d roles, %d PA edges (%d administrative)\n\n",
		stats.Users, stats.Roles, stats.PA, stats.AdminPrivVertices)

	// Persist every administrative action to a WAL.
	dir, err := os.MkdirTemp("", "hospital-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, _, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Compact(p); err != nil {
		log.Fatal(err)
	}

	m := monitor.New(p.Clone(), monitor.ModeStrict)
	m.Observe(func(e monitor.AuditEntry) {
		if err := store.AppendStep(e.Seq, command.StepResult{Cmd: e.Cmd, Outcome: e.Outcome}); err != nil {
			log.Fatal(err)
		}
	})

	// Example 2's working day: HR appoints, a rogue command bounces, HR
	// dismisses, and Alice delegates via a nested privilege.
	queue := command.Queue{
		command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)),
		command.Grant(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		command.Grant(policy.UserDiana, model.User(policy.UserDiana), model.Role(policy.RoleSO)),
		command.Revoke(policy.UserJane, model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		command.Grant(policy.UserAlice, model.Role(policy.RoleStaff), policy.PrivHRAssignBobStaff),
	}
	for _, res := range m.SubmitQueue(queue) {
		fmt.Printf("  %-48s -> %s\n", res.Cmd, res.Outcome)
	}

	// After Alice's delegation, Diana (a staff member) can appoint Bob too.
	res := m.Submit(command.Grant(policy.UserDiana, model.User(policy.UserBob), model.Role(policy.RoleStaff)))
	fmt.Printf("  %-48s -> %s (delegated via nesting)\n\n", res.Cmd, res.Outcome)

	// Crash-recover from the log and verify the state survived.
	want := m.Policy()
	store.Close()
	store2, recovered, rec, err := storage.Open(dir, storage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store2.Close()
	fmt.Printf("recovery: snapshot=%v, %d records replayed, state match=%v\n",
		rec.SnapshotLoaded, rec.Records, recovered.Equal(want))
}
