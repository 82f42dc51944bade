package policy

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// refPolicy is the abstract policy of Definition 3 kept the plain way — three
// sets of key pairs, a vertex per key, the declared names — and is what the
// graph-backed Policy must refine: same answers to every query after every
// step of any history. It is the representation Policy had before it became
// its graph.
type refPolicy struct {
	verts        map[string]model.Vertex
	rel          map[EdgeKind]map[[2]string]struct{}
	users, roles map[string]bool
}

func newRef() *refPolicy {
	return &refPolicy{
		verts: map[string]model.Vertex{},
		rel:   map[EdgeKind]map[[2]string]struct{}{EdgeUA: {}, EdgeRH: {}, EdgePA: {}},
		users: map[string]bool{}, roles: map[string]bool{},
	}
}

func (r *refPolicy) declare(v model.Vertex) {
	r.verts[v.Key()] = v
	if e, ok := v.(model.Entity); ok {
		if e.IsUser() {
			r.users[e.Name] = true
		} else {
			r.roles[e.Name] = true
		}
	}
}

func (r *refPolicy) add(kind EdgeKind, from, to model.Vertex) bool {
	r.declare(from)
	r.declare(to)
	if pr, ok := to.(model.Privilege); ok {
		for _, e := range model.Entities(pr) {
			r.declare(e)
		}
	}
	pair := [2]string{from.Key(), to.Key()}
	_, had := r.rel[kind][pair]
	r.rel[kind][pair] = struct{}{}
	return !had
}

func (r *refPolicy) remove(kind EdgeKind, from, to model.Vertex) bool {
	pair := [2]string{from.Key(), to.Key()}
	_, had := r.rel[kind][pair]
	delete(r.rel[kind], pair)
	return had
}

// pairs lists one relation sorted by source key, then target key.
func (r *refPolicy) pairs(kind EdgeKind) [][2]string {
	out := make([][2]string, 0, len(r.rel[kind]))
	for pr := range r.rel[kind] {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (r *refPolicy) edges(kinds ...EdgeKind) []Edge {
	out := []Edge{}
	for _, kind := range kinds {
		for _, pr := range r.pairs(kind) {
			out = append(out, Edge{Kind: kind, From: r.verts[pr[0]], To: r.verts[pr[1]]})
		}
	}
	return out
}

// reach is the set of keys reachable from key over the given relations,
// key itself included.
func (r *refPolicy) reach(key string, kinds ...EdgeKind) map[string]bool {
	seen := map[string]bool{key: true}
	for stack := []string{key}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, kind := range kinds {
			for pr := range r.rel[kind] {
				if pr[0] == v && !seen[pr[1]] {
					seen[pr[1]] = true
					stack = append(stack, pr[1])
				}
			}
		}
	}
	return seen
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wireJSON is the reference's JSON form, built from the sets.
func (r *refPolicy) wireJSON(t *testing.T) []byte {
	w := Wire{Users: sortedNames(r.users), Roles: sortedNames(r.roles)}
	for _, e := range r.edges(EdgeUA) {
		w.UA = append(w.UA, edgeWire{From: e.From.String(), To: e.To.String()})
	}
	for _, e := range r.edges(EdgeRH) {
		w.RH = append(w.RH, edgeWire{From: e.From.String(), To: e.To.String()})
	}
	for _, e := range r.edges(EdgePA) {
		priv, err := model.WireOf(e.To.(model.Privilege))
		if err != nil {
			t.Fatal(err)
		}
		w.PA = append(w.PA, edgeWire{From: e.From.String(), Priv: priv})
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// keysOf renders a query answer comparably: vertices and edges by canonical
// key, everything else as it prints; nil and empty agree.
func keysOf(v any) []string {
	out := []string{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.Len(); i++ {
		switch x := rv.Index(i).Interface().(type) {
		case Edge:
			out = append(out, fmt.Sprintf("%s %s %s", x.Kind, x.From.Key(), x.To.Key()))
		case model.Vertex:
			out = append(out, x.Key())
		default:
			out = append(out, fmt.Sprint(x))
		}
	}
	return out
}

// agree checks every query of Policy (policy.go and review.go) against the
// reference.
func agree(t *testing.T, step int, p *Policy, r *refPolicy, names []string, privs []model.Privilege) {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		if g, w := keysOf(got), keysOf(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: %s = %v, reference says %v", step, what, g, w)
		}
	}
	all := []EdgeKind{EdgeUA, EdgeRH, EdgePA}
	for _, kind := range all {
		same("EdgesOf "+kind.String(), p.EdgesOf(kind), r.edges(kind))
	}
	same("Edges", p.Edges(), r.edges(all...))
	same("Users", p.Users(), sortedNames(r.users))
	same("Roles", p.Roles(), sortedNames(r.roles))
	if want := len(r.rel[EdgeUA]) + len(r.rel[EdgeRH]) + len(r.rel[EdgePA]); p.NumEdges() != want {
		t.Fatalf("step %d: NumEdges = %d, reference says %d", step, p.NumEdges(), want)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("step %d: Validate: %v", step, err)
	}
	got, err := p.MarshalJSON()
	if err != nil || string(got) != string(r.wireJSON(t)) {
		t.Fatalf("step %d: MarshalJSON (err %v)\n got  %s\n want %s", step, err, got, r.wireJSON(t))
	}

	// Stats, with the RH chain recomputed from the reference's set.
	rg := graph.New()
	for pr := range r.rel[EdgeRH] {
		rg.AddEdge(pr[0], pr[1])
	}
	want := Stats{Users: len(r.users), Roles: len(r.roles), UA: len(r.rel[EdgeUA]), RH: len(r.rel[EdgeRH]), PA: len(r.rel[EdgePA]), LongestRoleChainInRH: rg.LongestChain()}
	var privVerts []model.Privilege
	for _, v := range r.verts {
		switch pr := v.(type) {
		case model.UserPrivilege:
			want.UserPrivVertices++
			privVerts = append(privVerts, pr)
		case model.AdminPrivilege:
			want.AdminPrivVertices++
			want.MaxPrivilegeDepth = max(want.MaxPrivilegeDepth, pr.Depth())
			privVerts = append(privVerts, pr)
		}
	}
	if got := p.Stats(); got != want {
		t.Fatalf("step %d: Stats = %+v, reference says %+v", step, got, want)
	}
	sort.Slice(privVerts, func(i, j int) bool { return privVerts[i].Key() < privVerts[j].Key() })
	same("PrivilegeVertices", p.PrivilegeVertices(), privVerts)

	// Vertex, HasEdge and Reaches over the whole vocabulary, present or not.
	var vocab []model.Vertex
	for _, n := range names {
		vocab = append(vocab, model.User(n), model.Role(n))
	}
	for _, pr := range privs {
		vocab = append(vocab, pr)
	}
	for _, from := range vocab {
		fk := from.Key()
		if v, ok := p.Vertex(fk); ok != (r.verts[fk] != nil) || (ok && v.Key() != fk) {
			t.Fatalf("step %d: Vertex(%s) = %v, %v", step, fk, v, ok)
		}
		reach := r.reach(fk, all...)
		for _, to := range vocab {
			pair := [2]string{fk, to.Key()}
			_, ua := r.rel[EdgeUA][pair]
			_, rh := r.rel[EdgeRH][pair]
			_, pa := r.rel[EdgePA][pair]
			if p.HasEdge(from, to) != (ua || rh || pa) {
				t.Fatalf("step %d: HasEdge(%s, %s) = %v", step, fk, to.Key(), p.HasEdge(from, to))
			}
			if p.Reaches(from, to) != reach[to.Key()] {
				t.Fatalf("step %d: Reaches(%s, %s) = %v", step, fk, to.Key(), p.Reaches(from, to))
			}
		}
	}

	// The review functions.
	for _, n := range names {
		uk, rk := model.User(n).Key(), model.Role(n).Key()
		var assignedUsers, authorizedUsers, activatable, seniors []string
		var held []model.Privilege
		var perms []model.UserPrivilege
		for _, pr := range r.pairs(EdgeUA) {
			if pr[1] == rk {
				assignedUsers = append(assignedUsers, r.verts[pr[0]].String())
			}
		}
		sort.Strings(assignedUsers)
		fromUser := r.reach(uk, all...)
		for _, u := range sortedNames(r.users) {
			if r.reach(model.User(u).Key(), all...)[rk] {
				authorizedUsers = append(authorizedUsers, u)
			}
		}
		for _, other := range sortedNames(r.roles) {
			ok := model.Role(other).Key()
			if r.users[n] && fromUser[ok] {
				activatable = append(activatable, other)
			}
			if r.roles[n] && other != n && r.reach(ok, EdgeRH)[rk] {
				seniors = append(seniors, other)
			}
		}
		for _, pv := range privVerts {
			if r.users[n] && fromUser[pv.Key()] {
				held = append(held, pv)
				if q, ok := pv.(model.UserPrivilege); ok {
					perms = append(perms, q)
				}
			}
		}
		same("AssignedUsers "+n, p.AssignedUsers(n), assignedUsers)
		same("AuthorizedUsers "+n, p.AuthorizedUsers(n), authorizedUsers)
		same("RolesActivatableBy "+n, p.RolesActivatableBy(n), activatable)
		same("Seniors "+n, p.Seniors(n), seniors)
		same("AuthorizedPrivileges "+n, p.AuthorizedPrivileges(model.User(n)), held)
		same("AuthorizedPerms "+n, p.AuthorizedPerms(model.User(n)), perms)
	}
	for _, pr := range privs {
		q, ok := pr.(model.UserPrivilege)
		if !ok {
			continue
		}
		var users []string
		for _, u := range sortedNames(r.users) {
			if r.reach(model.User(u).Key(), all...)[q.Key()] {
				users = append(users, u)
			}
		}
		same("UsersWithPerm "+q.Key(), p.UsersWithPerm(q), users)
	}
}

// TestPolicyRefinesEdgeSets drives seeded random histories — assign and
// deassign, inherit and remove, grant and revoke of plain, nested and revoke
// privileges, re-adding removed edges, one name used as user and role, names
// with every escaped character — through the graph-backed Policy and through
// the reference, and requires that no query can tell them apart after any
// step; that Diff against the previous state is exactly the step; and that a
// Clone is Equal, independent, and has the same vertex id for every key.
func TestPolicyRefinesEdgeSets(t *testing.T) {
	names := []string{"ann", "both", "x:y", "(p)", "a,b", "100%"}
	perm := model.Perm("read", "t,1")
	nested := model.Grant(model.Role("x:y"), model.Revoke(model.User("a,b"), model.Role("100%")))
	privs := []model.Privilege{
		perm, model.Perm("w(r)ite", "o:1"),
		model.Grant(model.User("ann"), model.Role("both")), model.Revoke(model.User("both"), model.Role("both")),
		model.Revoke(model.Role("(p)"), model.Role("x:y")), model.Grant(model.Role("both"), perm),
		nested, model.Revoke(model.Role("(p)"), nested),
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p, r := New(), newRef()
			pick := func() string { return names[rng.Intn(len(names))] }
			for step := 0; step < 250; step++ {
				before := p.Clone()
				a, b, pr := pick(), pick(), privs[rng.Intn(len(privs))]
				var kind EdgeKind
				var from, to model.Vertex
				var changed, want, adding bool
				switch op := rng.Intn(8); op {
				case 0, 1, 2:
					kind, from, to, adding = EdgeUA, model.User(a), model.Role(b), op != 2
				case 3, 4:
					kind, from, to, adding = EdgeRH, model.Role(a), model.Role(b), op != 4
				default:
					kind, from, to, adding = EdgePA, model.Role(a), pr, op != 7
				}
				var err error
				if adding {
					want = r.add(kind, from, to)
					// Alternate between the typed mutators and the generic one.
					switch {
					case step%2 == 0:
						changed, err = p.AddEdge(from, to)
					case kind == EdgeUA:
						changed = p.Assign(a, b)
					case kind == EdgeRH:
						changed = p.AddInherit(a, b)
					default:
						changed, err = p.GrantPrivilege(a, pr)
					}
				} else {
					want = r.remove(kind, from, to)
					changed, err = p.RemoveEdge(from, to)
				}
				if err != nil || changed != want {
					t.Fatalf("step %d: %v %s -> %s (add=%v): changed=%v err=%v, reference says %v", step, kind, from.Key(), to.Key(), adding, changed, err, want)
				}
				if step%40 == 7 {
					p.DeclareUser("idle")
					r.declare(model.User("idle"))
				}
				agree(t, step, p, r, names, privs)

				// Diff against the previous state is exactly this step.
				removed, added := before.Diff(p)
				var wantRemoved, wantAdded []Edge
				if changed && adding {
					wantAdded = []Edge{{Kind: kind, From: from, To: to}}
				} else if changed {
					wantRemoved = []Edge{{Kind: kind, From: from, To: to}}
				}
				if !reflect.DeepEqual(keysOf(removed), keysOf(wantRemoved)) || !reflect.DeepEqual(keysOf(added), keysOf(wantAdded)) {
					t.Fatalf("step %d: Diff = -%v +%v, want -%v +%v", step, keysOf(removed), keysOf(added), keysOf(wantRemoved), keysOf(wantAdded))
				}
				if before.Equal(p) != !changed || p.Equal(before) != !changed {
					t.Fatalf("step %d: Equal(previous) = %v after changed=%v", step, before.Equal(p), changed)
				}

				// A clone is equal, keeps every vertex id, and is independent.
				c := p.Clone()
				if !c.Equal(p) || !p.Equal(c) || c.g.NumVertices() != p.g.NumVertices() {
					t.Fatalf("step %d: clone differs", step)
				}
				for id := 0; id < p.g.NumVertices(); id++ {
					k := p.g.Key(id)
					if c.g.Lookup(k) != id || c.verts[id].Key() != k {
						t.Fatalf("step %d: clone has %q at vertex %d, not %d", step, k, c.g.Lookup(k), id)
					}
					if e, ok := p.verts[id].(model.Entity); ok && c.EntityVertex(e) != id {
						t.Fatalf("step %d: clone resolves entity %q to %d, not %d", step, k, c.EntityVertex(e), id)
					}
				}
				c.Assign("clone-only", "both")
				if p.HasUser("clone-only") || p.NumEdges() != c.NumEdges()-1 {
					t.Fatalf("step %d: mutating the clone reached the original", step)
				}
				// So does the policy rebuilt from the reference's JSON.
				back := New()
				if err := back.UnmarshalJSON(r.wireJSON(t)); err != nil || !back.Equal(p) {
					t.Fatalf("step %d: the reference's JSON builds a different policy (err %v)", step, err)
				}
			}
		})
	}
}
