package core

import (
	"fmt"
	"math/rand"
	"testing"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// TestIncrementalDeciderEquivalence churns a policy through random grant,
// revoke, assign and deassign mutations and checks after every step that a
// long-lived incremental Decider answers exactly like a freshly built one.
func TestIncrementalDeciderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := policy.Figure2()
	inc := NewDecider(p)

	roles := p.Roles()
	users := p.Users()
	queries := buildQueryPairs(p)

	for step := 0; step < 120; step++ {
		switch rng.Intn(5) {
		case 0:
			p.Assign(users[rng.Intn(len(users))], roles[rng.Intn(len(roles))])
		case 1:
			p.Deassign(users[rng.Intn(len(users))], roles[rng.Intn(len(roles))])
		case 2:
			p.AddInherit(roles[rng.Intn(len(roles))], roles[rng.Intn(len(roles))])
		case 3:
			p.RemoveInherit(roles[rng.Intn(len(roles))], roles[rng.Intn(len(roles))])
		case 4:
			priv := model.Grant(model.User(users[rng.Intn(len(users))]), model.Role(roles[rng.Intn(len(roles))]))
			if rng.Intn(2) == 0 {
				p.GrantPrivilege(roles[rng.Intn(len(roles))], priv)
			} else {
				p.RevokePrivilege(roles[rng.Intn(len(roles))], priv)
			}
		}
		fresh := NewDecider(p)
		for qi, q := range queries {
			want := fresh.Weaker(q[0], q[1])
			if got := inc.Weaker(q[0], q[1]); got != want {
				t.Fatalf("step %d query %d: incremental = %v, fresh = %v (%s Ã %s)", step, qi, got, want, q[0], q[1])
			}
		}
		for _, u := range users {
			probe := model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
			_, wantOK := fresh.HeldStronger(u, probe)
			if _, gotOK := inc.HeldStronger(u, probe); gotOK != wantOK {
				t.Fatalf("step %d: HeldStronger(%s) incremental = %v, fresh = %v", step, u, gotOK, wantOK)
			}
			if fresh.Holds(u, probe) != inc.Holds(u, probe) {
				t.Fatalf("step %d: Holds(%s) diverged", step, u)
			}
		}
	}
}

func buildQueryPairs(p *policy.Policy) [][2]model.Privilege {
	var privs []model.Privilege
	for _, r := range p.Roles() {
		privs = append(privs, model.Grant(model.User(policy.UserBob), model.Role(r)))
		privs = append(privs, model.Grant(model.Role(policy.RoleStaff), model.Grant(model.User(policy.UserBob), model.Role(r))))
	}
	privs = append(privs,
		model.Revoke(model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
		model.Grant(model.User(policy.UserJoe), model.Role(policy.RoleNurse)),
	)
	var out [][2]model.Privilege
	for i := range privs {
		for j := range privs {
			if i != j && len(out) < 200 {
				out = append(out, [2]model.Privilege{privs[i], privs[j]})
			}
		}
	}
	return out
}

// TestIncrementalDeciderNewVertices exercises the lazy vertex-id resolution:
// a term interned before its entities exist in the graph must start working
// once the entities are granted into the policy.
func TestIncrementalDeciderNewVertices(t *testing.T) {
	p := policy.New()
	p.AddInherit("top", "bot")
	d := NewDecider(p)

	strong := model.Grant(model.User("newbie"), model.Role("top"))
	weak := model.Grant(model.User("newbie"), model.Role("bot"))
	// newbie is not a vertex yet: only reflexivity applies.
	if !d.Weaker(strong, strong) {
		t.Fatal("reflexivity failed for unknown vertices")
	}
	if !d.Weaker(strong, weak) {
		t.Fatal("src-equal terms with unknown src should still order via dst reachability")
	}
	// Granting a privilege mentioning newbie interns the vertex; cached
	// unresolved ids must re-resolve.
	if _, err := p.GrantPrivilege("top", strong); err != nil {
		t.Fatal(err)
	}
	p.Assign("newbie", "top")
	if _, ok := d.HeldStronger("newbie", weak); !ok {
		t.Fatal("newbie holds grant(newbie,top) which should dominate grant(newbie,bot)")
	}
}

// TestIncrementalManyMutations stresses the mutation-log window: more
// mutations than the log retains must still produce correct answers.
func TestIncrementalManyMutations(t *testing.T) {
	p := policy.New()
	p.AddInherit("r0", "r1")
	d := NewDecider(p)
	for i := 0; i < 10000; i++ {
		p.Assign(fmt.Sprintf("u%d", i%50), "r0")
		p.Deassign(fmt.Sprintf("u%d", i%50), "r0")
	}
	p.Assign("u7", "r0")
	if _, err := p.GrantPrivilege("r1", model.Perm("read", "x")); err != nil {
		t.Fatal(err)
	}
	if !d.Holds("u7", model.Perm("read", "x")) {
		t.Fatal("reachability lost after log-window churn")
	}
}
