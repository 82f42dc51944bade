// Package policy implements the RBAC policies of Dekker & Etalle:
// non-administrative policies φ = (UA, RH, PA) of Definition 1 and
// administrative policies φ = (UA, RH, PA†) of Definition 3, interpreted as
// directed graphs whose vertices are users, roles and privilege terms, and
// whose reachability relation v →φ v' drives every other definition in the
// paper.
//
// A Policy is its graph: the three relations
//
//	UA ⊆ U × R    user assignments      (user → role)
//	RH ⊆ R × R    role hierarchy        (senior role → junior role)
//	PA ⊆ R × P†   privilege assignments (role → user or admin privilege)
//
// are the graph's edges told apart by the sorts of their endpoints.
// Privileges appear as graph vertices interned by their canonical key, so
// two structurally equal privilege terms are the same vertex, exactly as the
// paper requires for rule (2) of Definition 8 to range over privilege
// vertices (see DESIGN.md D3).
package policy

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// EdgeKind classifies a policy edge into one of the three relations.
type EdgeKind uint8

const (
	// EdgeUA is a user-assignment edge (u, r) ∈ UA.
	EdgeUA EdgeKind = iota + 1
	// EdgeRH is a role-hierarchy edge (r, r') ∈ RH.
	EdgeRH
	// EdgePA is a privilege-assignment edge (r, p) ∈ PA†.
	EdgePA
)

// String names the edge relation.
func (k EdgeKind) String() string {
	if k < EdgeUA || k > EdgePA {
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
	return [...]string{EdgeUA: "UA", EdgeRH: "RH", EdgePA: "PA"}[k]
}

// Edge is one directed policy edge with its classification.
type Edge struct {
	Kind EdgeKind
	From model.Vertex
	To   model.Vertex
}

// String renders the edge as "from -> to".
func (e Edge) String() string { return e.From.String() + " -> " + e.To.String() }

// Policy is a mutable administrative RBAC policy. The zero value is not
// usable; call New. Policy is not safe for concurrent mutation; the
// reference monitor serialises access.
//
// A Policy is its graph (Definition 3): the digraph's adjacency is the only
// record of UA, RH and PA†, and the relation an edge belongs to is derived
// from the sorts of its endpoints (ClassifyEdge makes it a function of the
// pair).
type Policy struct {
	g *graph.Digraph
	// verts is the vertex each graph id names.
	verts []model.Vertex

	// users and roles are the declared entity names, each mapped to its graph
	// vertex id, so an entity resolves to its vertex without building a key.
	users map[string]int32
	roles map[string]int32
}

// New returns an empty policy.
func New() *Policy {
	return &Policy{g: graph.New(), users: make(map[string]int32), roles: make(map[string]int32)}
}

// intern registers a vertex and returns its graph id. A declared entity is
// resolved by name; nothing is built for it.
func (p *Policy) intern(v model.Vertex) int {
	e, isEntity := v.(model.Entity)
	if isEntity {
		if id := p.EntityVertex(e); id != graph.NoVertex {
			return id
		}
	}
	id := p.g.AddVertex(v.Key())
	if id == len(p.verts) {
		p.verts = append(p.verts, v)
		if isEntity {
			p.index(e, id)
		}
	}
	return id
}

// index records a declared entity's vertex id under its name.
func (p *Policy) index(e model.Entity, id int) {
	switch e.Kind {
	case model.KindUser:
		p.users[e.Name] = int32(id)
	case model.KindRole:
		p.roles[e.Name] = int32(id)
	}
}

// lookup returns the graph id of a vertex, or graph.NoVertex.
func (p *Policy) lookup(v model.Vertex) int {
	if e, ok := v.(model.Entity); ok {
		return p.EntityVertex(e)
	}
	return p.g.Lookup(v.Key())
}

// kindOf names the relation of the present edge f → t.
func (p *Policy) kindOf(f, t int) EdgeKind {
	kind, _ := ClassifyEdge(p.verts[f], p.verts[t])
	return kind
}

// EntityVertex returns the graph vertex id of a declared user or role, or
// graph.NoVertex. It is Graph().Lookup(e.Key()) without building the key:
// the per-query entity lookup of the decision procedure.
func (p *Policy) EntityVertex(e model.Entity) int {
	var id int32
	var ok bool
	switch e.Kind {
	case model.KindUser:
		id, ok = p.users[e.Name]
	case model.KindRole:
		id, ok = p.roles[e.Name]
	}
	if !ok {
		return graph.NoVertex
	}
	return int(id)
}

// DeclareUser registers a user in the policy's universe without any edges.
func (p *Policy) DeclareUser(name string) { p.intern(model.User(name)) }

// DeclareRole registers a role in the policy's universe without any edges.
func (p *Policy) DeclareRole(name string) { p.intern(model.Role(name)) }

// Assign adds the user-assignment edge (user, role) ∈ UA, reporting whether
// it was new.
func (p *Policy) Assign(user, role string) bool {
	return p.addEdge(model.User(user), model.Role(role))
}

// Deassign removes (user, role) from UA, reporting whether it existed.
func (p *Policy) Deassign(user, role string) bool {
	return p.removeEdge(model.User(user), model.Role(role))
}

// AddInherit adds the role-hierarchy edge (senior, junior) ∈ RH: senior
// inherits every privilege reachable from junior.
func (p *Policy) AddInherit(senior, junior string) bool {
	return p.addEdge(model.Role(senior), model.Role(junior))
}

// RemoveInherit removes (senior, junior) from RH.
func (p *Policy) RemoveInherit(senior, junior string) bool {
	return p.removeEdge(model.Role(senior), model.Role(junior))
}

// GrantPrivilege adds the privilege-assignment edge (role, priv) ∈ PA†.
// The privilege must be grammatical.
func (p *Policy) GrantPrivilege(role string, priv model.Privilege) (bool, error) {
	if err := model.ValidatePrivilege(priv); err != nil {
		return false, err
	}
	return p.addEdge(model.Role(role), priv), nil
}

// RevokePrivilege removes (role, priv) from PA†.
func (p *Policy) RevokePrivilege(role string, priv model.Privilege) bool {
	return p.removeEdge(model.Role(role), priv)
}

// ClassifyEdge determines which relation an edge between two vertices
// belongs to, per the sorts of Definition 3, or an error when no relation
// admits the pair (e.g. role → user).
func ClassifyEdge(from, to model.Vertex) (EdgeKind, error) {
	switch f := from.(type) {
	case model.Entity:
		switch t := to.(type) {
		case model.Entity:
			switch {
			case f.IsUser() && t.IsRole():
				return EdgeUA, nil
			case f.IsRole() && t.IsRole():
				return EdgeRH, nil
			default:
				return 0, fmt.Errorf("no relation admits edge %s(%s) -> %s(%s)", f, f.Kind, t, t.Kind)
			}
		case model.Privilege:
			if f.IsRole() {
				return EdgePA, nil
			}
			return 0, fmt.Errorf("privileges can only be assigned to roles, not %s %s", f.Kind, f)
		}
	}
	return 0, fmt.Errorf("no relation admits edge %T -> %T", from, to)
}

// AddEdge inserts the edge (from, to), classifying it by vertex sorts.
// It reports whether the edge was new.
func (p *Policy) AddEdge(from, to model.Vertex) (bool, error) {
	if _, err := ClassifyEdge(from, to); err != nil {
		return false, err
	}
	if pr, ok := to.(model.Privilege); ok {
		if err := model.ValidatePrivilege(pr); err != nil {
			return false, err
		}
	}
	return p.addEdge(from, to), nil
}

// RemoveEdge deletes the edge (from, to) regardless of relation, reporting
// whether it existed. Removing an edge never removes vertices: the
// universes U, R, P are fixed (paper §3).
func (p *Policy) RemoveEdge(from, to model.Vertex) (bool, error) {
	if _, err := ClassifyEdge(from, to); err != nil {
		return false, err
	}
	return p.removeEdge(from, to), nil
}

func (p *Policy) addEdge(from, to model.Vertex) bool {
	f, t := p.intern(from), p.intern(to)
	// Entities mentioned inside a privilege term belong to the policy's
	// vocabulary (a privilege ¤(bob,staff) speaks about bob and staff even
	// before any edge touches them), so declare them.
	if pr, ok := to.(model.Privilege); ok {
		for _, e := range model.Entities(pr) {
			p.intern(e)
		}
	}
	return p.g.AddEdgeID(f, t)
}

func (p *Policy) removeEdge(from, to model.Vertex) bool {
	f, t := p.lookup(from), p.lookup(to)
	return f != graph.NoVertex && t != graph.NoVertex && p.g.RemoveEdgeID(f, t)
}

// HasEdge reports whether the direct edge (from, to) is present in any
// relation.
func (p *Policy) HasEdge(from, to model.Vertex) bool {
	f, t := p.lookup(from), p.lookup(to)
	return f != graph.NoVertex && t != graph.NoVertex && p.g.HasEdgeID(f, t)
}

// Reaches reports v →φ v': reflexive-transitive reachability in the policy
// graph.
func (p *Policy) Reaches(from, to model.Vertex) bool {
	return p.g.Reaches(from.Key(), to.Key())
}

// ReachesKey is Reaches over canonical vertex keys.
func (p *Policy) ReachesKey(from, to string) bool { return p.g.Reaches(from, to) }

// Path returns one witness path from → to as vertices, or nil. Used by
// authorization explanations.
func (p *Policy) Path(from, to model.Vertex) []model.Vertex {
	keys := p.g.Path(from.Key(), to.Key())
	if keys == nil {
		return nil
	}
	out := make([]model.Vertex, len(keys))
	for i, k := range keys {
		var ok bool
		if out[i], ok = p.Vertex(k); !ok {
			return nil
		}
	}
	return out
}

// Vertex returns the vertex with the given canonical key, if present.
func (p *Policy) Vertex(key string) (model.Vertex, bool) {
	id := p.g.Lookup(key)
	if id == graph.NoVertex {
		return nil, false
	}
	return p.verts[id], true
}

// Users returns the declared user names, sorted.
func (p *Policy) Users() []string { return sortedKeys(p.users) }

// Roles returns the declared role names, sorted.
func (p *Policy) Roles() []string { return sortedKeys(p.roles) }

// HasUser reports whether the user is declared.
func (p *Policy) HasUser(name string) bool { _, ok := p.users[name]; return ok }

// HasRole reports whether the role is declared.
func (p *Policy) HasRole(name string) bool { _, ok := p.roles[name]; return ok }

func sortedKeys(m map[string]int32) []string { return slices.Sorted(maps.Keys(m)) }

// PrivilegeVertices returns every privilege term that occurs as a vertex of
// the policy graph (i.e. as the target of some PA† edge, now or in the
// past), sorted by key. These are the candidates for the vertex-hop case of
// the ordering decision procedure (DESIGN.md D4).
func (p *Policy) PrivilegeVertices() []model.Privilege { return p.privileges(nil) }

// privileges returns the privilege vertices — those marked in reach, when it
// is non-nil — sorted by key.
func (p *Policy) privileges(reach []bool) (out []model.Privilege) {
	var ids []int
	for id, v := range p.verts {
		if _, ok := v.(model.Privilege); ok && (reach == nil || reach[id]) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int { return strings.Compare(p.g.Key(a), p.g.Key(b)) })
	for _, id := range ids {
		out = append(out, p.verts[id].(model.Privilege))
	}
	return out
}

// EdgesOf returns the edges of one relation, sorted deterministically (by
// the canonical keys of source, then target).
func (p *Policy) EdgesOf(kind EdgeKind) []Edge {
	var ids [][2]int
	for f := range p.verts {
		for _, t := range p.g.Successors(f) {
			if p.kindOf(f, t) == kind {
				ids = append(ids, [2]int{f, t})
			}
		}
	}
	slices.SortFunc(ids, func(a, b [2]int) int {
		if c := strings.Compare(p.g.Key(a[0]), p.g.Key(b[0])); c != 0 {
			return c
		}
		return strings.Compare(p.g.Key(a[1]), p.g.Key(b[1]))
	})
	out := make([]Edge, len(ids))
	for i, e := range ids {
		out[i] = Edge{Kind: kind, From: p.verts[e[0]], To: p.verts[e[1]]}
	}
	return out
}

// Edges returns all edges of the policy (UA, then RH, then PA), sorted.
func (p *Policy) Edges() []Edge {
	return slices.Concat(p.EdgesOf(EdgeUA), p.EdgesOf(EdgeRH), p.EdgesOf(EdgePA))
}

// NumEdges returns |UA| + |RH| + |PA†|.
func (p *Policy) NumEdges() int { return p.g.NumEdges() }

// AuthorizedPerms returns the user privileges (elements of P, not admin
// privileges) reachable from the vertex: the paper's "privileges of the
// user's session" when every role is activated. Sorted by key.
func (p *Policy) AuthorizedPerms(v model.Vertex) []model.UserPrivilege {
	var out []model.UserPrivilege
	for _, pr := range p.AuthorizedPrivileges(v) {
		if q, ok := pr.(model.UserPrivilege); ok {
			out = append(out, q)
		}
	}
	return out
}

// AuthorizedPrivileges returns every privilege vertex (user or
// administrative) reachable from v, sorted by key.
func (p *Policy) AuthorizedPrivileges(v model.Vertex) []model.Privilege {
	return p.privileges(p.g.ReachableFrom(p.lookup(v)))
}

// CanActivate reports whether user u may activate role r: u →φ r (§2).
func (p *Policy) CanActivate(user, role string) bool {
	return p.Reaches(model.User(user), model.Role(role))
}

// RolesActivatableBy returns the roles user u can activate, sorted.
func (p *Policy) RolesActivatableBy(user string) []string {
	var out []string
	for id, in := range p.g.ReachableFrom(p.EntityVertex(model.User(user))) {
		if e, ok := p.verts[id].(model.Entity); in && ok && e.IsRole() {
			out = append(out, e.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Graph exposes the underlying digraph (read-only use: closures, DOT,
// longest-chain queries). Mutations must go through Policy methods.
func (p *Policy) Graph() *graph.Digraph { return p.g }

// Generation changes whenever the policy mutates; ordering caches key on it.
func (p *Policy) Generation() uint64 { return p.g.Generation() }

// LongestRoleChain returns the longest chain length in RH alone — the
// nesting bound conjectured by Remark 2.
func (p *Policy) LongestRoleChain() int { return p.roleGraph().LongestChain() }

// Clone returns an independent deep copy of the policy with the same vertex
// ids. Privilege terms are immutable and shared.
func (p *Policy) Clone() *Policy {
	return &Policy{g: p.g.Clone(), verts: slices.Clone(p.verts), users: maps.Clone(p.users), roles: maps.Clone(p.roles)}
}

// Equal reports whether two policies have identical UA, RH and PA† sets.
// Declared-but-unconnected vertices do not affect equality: Definition 3
// identifies a policy with its edge sets.
func (p *Policy) Equal(q *Policy) bool {
	if p.NumEdges() != q.NumEdges() {
		return false
	}
	for f := range p.verts {
		for _, t := range p.g.Successors(f) {
			if !q.g.HasEdge(p.g.Key(f), p.g.Key(t)) {
				return false
			}
		}
	}
	return true
}

// Diff lists the edges present in p but not q (removed) and present in q but
// not p (added), per relation kind, deterministically ordered.
func (p *Policy) Diff(q *Policy) (removed, added []Edge) {
	for _, kind := range []EdgeKind{EdgeUA, EdgeRH, EdgePA} {
		for _, e := range p.EdgesOf(kind) {
			if !q.HasEdge(e.From, e.To) {
				removed = append(removed, e)
			}
		}
		for _, e := range q.EdgesOf(kind) {
			if !p.HasEdge(e.From, e.To) {
				added = append(added, e)
			}
		}
	}
	return removed, added
}

// Validate checks structural well-formedness: every edge joins sorts some
// relation admits (user → role, role → role, role → privilege) and every
// privilege vertex is a grammatical term. A freshly built Policy is always
// valid (the mutators enforce sorts); Validate guards deserialized policies.
func (p *Policy) Validate() error {
	for f, v := range p.verts {
		for _, t := range p.g.Successors(f) {
			if _, err := ClassifyEdge(v, p.verts[t]); err != nil {
				return err
			}
		}
		if pr, ok := v.(model.Privilege); ok {
			if err := model.ValidatePrivilege(pr); err != nil {
				return fmt.Errorf("privilege vertex %s: %w", p.g.Key(f), err)
			}
		}
	}
	return nil
}

// Stats summarises policy size.
type Stats struct {
	Users, Roles         int
	UA, RH, PA           int
	UserPrivVertices     int
	AdminPrivVertices    int
	MaxPrivilegeDepth    int
	LongestRoleChainInRH int
}

// Stats computes size statistics for reporting and benchmarks.
func (p *Policy) Stats() Stats {
	s := Stats{Users: len(p.users), Roles: len(p.roles), LongestRoleChainInRH: p.LongestRoleChain()}
	var edges [EdgePA + 1]int
	for f, v := range p.verts {
		switch pr := v.(type) {
		case model.UserPrivilege:
			s.UserPrivVertices++
		case model.AdminPrivilege:
			s.AdminPrivVertices++
			if d := pr.Depth(); d > s.MaxPrivilegeDepth {
				s.MaxPrivilegeDepth = d
			}
		}
		for _, t := range p.g.Successors(f) {
			edges[p.kindOf(f, t)]++
		}
	}
	s.UA, s.RH, s.PA = edges[EdgeUA], edges[EdgeRH], edges[EdgePA]
	return s
}

// DOT renders the policy in Graphviz format; UA edges solid, RH edges bold,
// PA edges dashed; privilege vertices boxed.
func (p *Policy) DOT(name string) string {
	labels := make(map[string]string, len(p.verts))
	attrs := make(map[string]string)
	for f, v := range p.verts {
		labels[p.g.Key(f)] = v.String()
		for _, t := range p.g.Successors(f) {
			if style := [...]string{EdgeRH: "style=bold", EdgePA: "style=dashed"}[p.kindOf(f, t)]; style != "" {
				attrs[p.g.Key(f)+"\x00"+p.g.Key(t)] = style
			}
		}
	}
	return p.g.DOT(name, labels, attrs)
}

// edgeWire is one edge of a Wire: To names the entity target of a UA or RH
// edge, Priv the privilege target of a PA edge.
type edgeWire struct {
	From string          `json:"from"`
	To   string          `json:"to,omitempty"`
	Priv *model.PrivWire `json:"priv,omitempty"`
}

// Wire is the JSON form of a policy as plain data. A document that embeds a
// policy (storage's legacy snapshot) declares a Wire field and decodes the
// whole file in one parse; a *Policy field would be handed its bytes to
// parse again.
type Wire struct {
	Users []string   `json:"users,omitempty"`
	Roles []string   `json:"roles,omitempty"`
	UA    []edgeWire `json:"ua,omitempty"`
	RH    []edgeWire `json:"rh,omitempty"`
	PA    []edgeWire `json:"pa,omitempty"`
}

// Wire returns the policy's wire form, deterministically ordered.
func (p *Policy) Wire() (Wire, error) {
	w := Wire{Users: p.Users(), Roles: p.Roles()}
	for _, e := range p.EdgesOf(EdgeUA) {
		w.UA = append(w.UA, edgeWire{From: e.From.String(), To: e.To.String()})
	}
	for _, e := range p.EdgesOf(EdgeRH) {
		w.RH = append(w.RH, edgeWire{From: e.From.String(), To: e.To.String()})
	}
	for _, e := range p.EdgesOf(EdgePA) {
		priv, err := model.WireOf(e.To.(model.Privilege))
		if err != nil {
			return Wire{}, err
		}
		w.PA = append(w.PA, edgeWire{From: e.From.String(), Priv: priv})
	}
	return w, nil
}

// Policy builds the policy w describes and validates it.
func (w *Wire) Policy() (*Policy, error) {
	p := New()
	for _, u := range w.Users {
		p.DeclareUser(u)
	}
	for _, r := range w.Roles {
		p.DeclareRole(r)
	}
	for _, e := range w.UA {
		p.Assign(e.From, e.To)
	}
	for _, e := range w.RH {
		p.AddInherit(e.From, e.To)
	}
	for _, e := range w.PA {
		pr, err := e.Priv.Privilege()
		if err != nil {
			return nil, fmt.Errorf("PA edge from %s: %w", e.From, err)
		}
		if _, err := p.GrantPrivilege(e.From, pr); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalJSON encodes the policy deterministically.
func (p *Policy) MarshalJSON() ([]byte, error) {
	w, err := p.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a policy and validates it; p is untouched on error.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var w Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	fresh, err := w.Policy()
	if err != nil {
		return err
	}
	*p = *fresh
	return nil
}
