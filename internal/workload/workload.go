// Package workload generates synthetic policies and command streams for the
// experiment harness and the service benchmarks. The paper evaluates its
// constructions on pencil-and-paper examples only; these deterministic
// generators supply the scaled instances the EXPERIMENTS.md studies run on
// (substitution table in DESIGN.md §6), the churn fixtures the incremental
// engine benchmarks measure, and the skewed multi-tenant traffic
// (MultiTenantGen, Zipf-distributed tenant picks) that drives the sharded
// authorization service end to end. Every generator is a pure function of
// its parameters and seed, so experiment rows are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Config parameterises Random.
type Config struct {
	Seed  int64
	Users int
	Roles int
	Perms int
	// Layers stratifies roles; RH edges go only from layer i to layer i+1,
	// keeping the hierarchy acyclic. Must divide into Roles sensibly; at
	// least 1.
	Layers int
	// Density is the probability of an RH edge between a role and each role
	// of the next layer.
	Density float64
	// AdminAssignments is the number of PA† edges carrying administrative
	// privileges.
	AdminAssignments int
	// MaxNest bounds the nesting depth of generated administrative
	// privileges (1 = flat ¤(u,r)/¤(r,r')).
	MaxNest int
	// RevokeFrac is the fraction of administrative privileges using ♦.
	RevokeFrac float64
}

// DefaultConfig returns a mid-sized configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed, Users: 20, Roles: 30, Perms: 25,
		Layers: 4, Density: 0.25, AdminAssignments: 15,
		MaxNest: 3, RevokeFrac: 0.25,
	}
}

// Random generates a policy from the configuration.
func Random(cfg Config) *policy.Policy {
	if cfg.Layers < 1 {
		cfg.Layers = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := policy.New()

	roles := make([]string, cfg.Roles)
	layerOf := make([]int, cfg.Roles)
	for i := range roles {
		roles[i] = fmt.Sprintf("role%03d", i)
		layerOf[i] = i * cfg.Layers / max(cfg.Roles, 1)
		p.DeclareRole(roles[i])
	}
	users := make([]string, cfg.Users)
	for i := range users {
		users[i] = fmt.Sprintf("user%03d", i)
		// Assign every user to one or two random roles.
		p.Assign(users[i], roles[rng.Intn(cfg.Roles)])
		if rng.Float64() < 0.3 {
			p.Assign(users[i], roles[rng.Intn(cfg.Roles)])
		}
	}
	// Layered RH edges.
	for i := range roles {
		for j := range roles {
			if layerOf[j] == layerOf[i]+1 && rng.Float64() < cfg.Density {
				p.AddInherit(roles[i], roles[j])
			}
		}
	}
	// User privileges, biased toward lower layers.
	for i := 0; i < cfg.Perms; i++ {
		q := model.Perm(fmt.Sprintf("act%02d", i%7), fmt.Sprintf("obj%03d", i))
		target := roles[rng.Intn(cfg.Roles)]
		if _, err := p.GrantPrivilege(target, q); err != nil {
			panic("workload: " + err.Error())
		}
	}
	// Administrative privileges.
	for i := 0; i < cfg.AdminAssignments; i++ {
		holder := roles[rng.Intn(cfg.Roles)]
		priv := randomAdminPriv(rng, users, roles, cfg.MaxNest, cfg.RevokeFrac)
		if _, err := p.GrantPrivilege(holder, priv); err != nil {
			panic("workload: " + err.Error())
		}
	}
	return p
}

func randomAdminPriv(rng *rand.Rand, users, roles []string, maxNest int, revokeFrac float64) model.Privilege {
	op := model.OpGrant
	if rng.Float64() < revokeFrac {
		op = model.OpRevoke
	}
	// Innermost privilege: op(u, r) or op(r, r').
	var inner model.AdminPrivilege
	if rng.Intn(2) == 0 {
		inner = model.AdminPrivilege{Op: op, Src: model.User(users[rng.Intn(len(users))]), Dst: model.Role(roles[rng.Intn(len(roles))])}
	} else {
		inner = model.AdminPrivilege{Op: op, Src: model.Role(roles[rng.Intn(len(roles))]), Dst: model.Role(roles[rng.Intn(len(roles))])}
	}
	depth := 1
	if maxNest > 1 {
		depth += rng.Intn(maxNest)
	}
	out := model.Privilege(inner)
	for d := 1; d < depth; d++ {
		wrapOp := model.OpGrant // nesting with ♦ outer is legal too, mix a little
		if rng.Float64() < revokeFrac/2 {
			wrapOp = model.OpRevoke
		}
		out = model.AdminPrivilege{Op: wrapOp, Src: model.Role(roles[rng.Intn(len(roles))]), Dst: out}
	}
	return out
}

// Chain builds a policy whose RH is a single chain r0 → r1 → … → r(n-1),
// with one user assigned to r0 and one permission at the bottom. Used by the
// Lemma 1 scaling studies: the longest RH chain (Remark 2's bound) is n-1.
func Chain(n int) *policy.Policy {
	p := policy.New()
	for i := 0; i < n; i++ {
		p.DeclareRole(chainRole(i))
	}
	for i := 0; i+1 < n; i++ {
		p.AddInherit(chainRole(i), chainRole(i+1))
	}
	p.Assign("u0", chainRole(0))
	if n > 0 {
		if _, err := p.GrantPrivilege(chainRole(n-1), model.Perm("read", "obj")); err != nil {
			panic(err)
		}
	}
	return p
}

func chainRole(i int) string { return fmt.Sprintf("c%04d", i) }

// NestedPair returns a (strong, weak) privilege pair of the given nesting
// depth over a Chain(n) policy with n >= 2: both sides nest depth-1 grant
// connectives rooted at r0; the innermost assignment of the strong term
// targets r0 while the weak term targets the chain's last role, so deciding
// strong Ãφ weak exercises one reachability query per nesting level —
// exactly the recursion Lemma 1's proof performs.
func NestedPair(n, depth int) (strong, weak model.Privilege) {
	if n < 2 || depth < 1 {
		panic("workload: NestedPair needs n >= 2, depth >= 1")
	}
	u := model.User("u0")
	strong = model.Grant(u, model.Role(chainRole(0)))
	weak = model.Grant(u, model.Role(chainRole(n-1)))
	for d := 1; d < depth; d++ {
		strong = model.Grant(model.Role(chainRole(0)), strong)
		weak = model.Grant(model.Role(chainRole(0)), weak)
	}
	return strong, weak
}

// Hospital scales the paper's Figure 2 pattern to nDepts departments: each
// department d has the role chain staff_d → nurse_d → dbusr1_d plus
// staff_d → dbusr2_d → dbusr1_d, table permissions, one assigned nurse user
// and one unassigned flexworker; a global SO → HR pair holds per-department
// appointment privileges (¤(flex_d, staff_d)) and each dbusr3_d holds the
// revocation privilege ♦(dbusr2_d, dbusr1_d).
func Hospital(nDepts int) *policy.Policy {
	p := policy.New()
	p.Assign("alice", "SO")
	p.Assign("jane", "HR")
	p.AddInherit("SO", "HR")
	for d := 0; d < nDepts; d++ {
		staff := fmt.Sprintf("staff_%d", d)
		nurse := fmt.Sprintf("nurse_%d", d)
		db1 := fmt.Sprintf("dbusr1_%d", d)
		db2 := fmt.Sprintf("dbusr2_%d", d)
		db3 := fmt.Sprintf("dbusr3_%d", d)
		p.AddInherit(staff, nurse)
		p.AddInherit(nurse, db1)
		p.AddInherit(staff, db2)
		p.AddInherit(db2, db1)
		p.DeclareRole(db3)
		mustGrant(p, db1, model.Perm("read", fmt.Sprintf("t1_%d", d)))
		mustGrant(p, db1, model.Perm("read", fmt.Sprintf("t2_%d", d)))
		mustGrant(p, db2, model.Perm("write", fmt.Sprintf("t3_%d", d)))
		nurseUser := fmt.Sprintf("nurseuser_%d", d)
		p.Assign(nurseUser, nurse)
		flex := fmt.Sprintf("flex_%d", d)
		p.DeclareUser(flex)
		mustGrant(p, "HR", model.Grant(model.User(flex), model.Role(staff)))
		mustGrant(p, "HR", model.Revoke(model.User(flex), model.Role(staff)))
		mustGrant(p, db3, model.Revoke(model.Role(db2), model.Role(db1)))
		// SO can delegate per-department appointment authority to staff.
		mustGrant(p, "SO", model.Grant(model.Role(staff), model.Grant(model.User(flex), model.Role(staff))))
	}
	return p
}

func mustGrant(p *policy.Policy, role string, priv model.Privilege) {
	if _, err := p.GrantPrivilege(role, priv); err != nil {
		panic("workload: " + err.Error())
	}
}

// ChurnPolicy builds the grant-then-query churn fixture the incremental
// engine benchmarks run on: a Chain(nRoles) role hierarchy, nUsers member
// users, and an administrator "churnadmin" whose single held privilege
// ¤(member, c0000) authorizes — under the refined regime of §4.1 — assigning
// any member user to any chain role (rule 2: u →φ member for every member,
// and the chain top c0000 reaches every chain role). Every ChurnGrant
// command is therefore authorized, and each one is a pure UA-edge addition:
// the closure delta is one bit-row OR with no predecessors to propagate to,
// the worst possible case for a rebuild-everything baseline and the best for
// the incremental path.
func ChurnPolicy(nRoles, nUsers int) *policy.Policy {
	p := Chain(nRoles)
	p.Assign("churnadmin", "churnadmins")
	mustGrant(p, "churnadmins", model.Grant(model.Role("member"), model.Role(chainRole(0))))
	for i := 0; i < nUsers; i++ {
		p.Assign(churnUser(i), "member")
	}
	return p
}

func churnUser(i int) string { return fmt.Sprintf("cu%04d", i) }

// ChurnGrant returns the i-th command of the churn stream: churnadmin
// assigns a member user to a chain role, cycling through the nUsers×nRoles
// distinct (user, role) pairs before repeating.
func ChurnGrant(i, nUsers, nRoles int) command.Command {
	u := churnUser(i % nUsers)
	r := chainRole((i / nUsers) % nRoles)
	return command.Grant("churnadmin", model.User(u), model.Role(r))
}

// ChurnDeassign returns the policy-level undo of ChurnGrant(i): removing the
// same UA edge. Revocation commands are not ordering-authorizable (the paper
// leaves a ♦ ordering open), so mixed churn drives removals through the
// policy directly rather than through the transition function.
func ChurnDeassign(p *policy.Policy, i, nUsers, nRoles int) bool {
	return p.Deassign(churnUser(i%nUsers), chainRole((i/nUsers)%nRoles))
}

// CommandSlab precomputes the first n commands of the churn stream, so
// benchmarks measure the authorization path rather than fmt.Sprintf, and
// repeated passes over the slab exercise the boundary interning and the
// decision cache exactly as a steady query mix would.
func CommandSlab(n, nUsers, nRoles int) []command.Command {
	out := make([]command.Command, n)
	for i := range out {
		out[i] = ChurnGrant(i, nUsers, nRoles)
	}
	return out
}

// Queue samples n commands from the policy's relevant command alphabet
// (administrative privilege terms and their subterms across all users),
// deterministically from the seed.
func Queue(p *policy.Policy, n int, seed int64) command.Queue {
	alpha := core.RelevantCommands(p, nil, nil)
	if len(alpha) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	q := make(command.Queue, n)
	for i := range q {
		q[i] = alpha[rng.Intn(len(alpha))]
	}
	return q
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
