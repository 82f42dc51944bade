// Package policy implements the RBAC policies of Dekker & Etalle:
// non-administrative policies φ = (UA, RH, PA) of Definition 1 and
// administrative policies φ = (UA, RH, PA†) of Definition 3, interpreted as
// directed graphs whose vertices are users, roles and privilege terms, and
// whose reachability relation v →φ v' drives every other definition in the
// paper.
//
// A Policy owns three typed edge sets:
//
//	UA ⊆ U × R    user assignments      (user → role)
//	RH ⊆ R × R    role hierarchy        (senior role → junior role)
//	PA ⊆ R × P†   privilege assignments (role → user or admin privilege)
//
// Privileges appear as graph vertices interned by their canonical key, so
// two structurally equal privilege terms are the same vertex, exactly as the
// paper requires for rule (2) of Definition 8 to range over privilege
// vertices (see DESIGN.md D3).
package policy

import (
	"encoding/json"
	"fmt"
	"sort"

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
	switch k {
	case EdgeUA:
		return "UA"
	case EdgeRH:
		return "RH"
	case EdgePA:
		return "PA"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
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
type Policy struct {
	g     *graph.Digraph
	verts map[string]model.Vertex // key -> vertex metadata

	ua map[[2]string]struct{}
	rh map[[2]string]struct{}
	pa map[[2]string]struct{}

	// users and roles are the declared entity names, each mapped to its graph
	// vertex id, so an entity resolves to its vertex without building a key.
	users map[string]int32
	roles map[string]int32
}

// New returns an empty policy.
func New() *Policy { return newSized(&Wire{}) }

// newSized returns an empty policy with room for what w declares.
func newSized(w *Wire) *Policy {
	verts := len(w.Users) + len(w.Roles) + len(w.PA)
	return &Policy{
		g:     graph.NewSized(verts, len(w.UA)+len(w.RH)+len(w.PA)),
		verts: make(map[string]model.Vertex, verts),
		ua:    make(map[[2]string]struct{}, len(w.UA)),
		rh:    make(map[[2]string]struct{}, len(w.RH)),
		pa:    make(map[[2]string]struct{}, len(w.PA)),
		users: make(map[string]int32, len(w.Users)),
		roles: make(map[string]int32, len(w.Roles)),
	}
}

// intern registers a vertex and returns its key. A declared entity's key is
// the one its vertex already carries; nothing is built for it.
func (p *Policy) intern(v model.Vertex) string {
	if e, ok := v.(model.Entity); ok {
		if id := p.EntityVertex(e); id != graph.NoVertex {
			return p.g.Key(id)
		}
	}
	k := v.Key()
	if _, ok := p.verts[k]; !ok {
		p.addVertex(k, v)
	}
	return k
}

// addVertex registers a vertex known to be absent under its key.
func (p *Policy) addVertex(k string, v model.Vertex) {
	p.verts[k] = v
	id := int32(p.g.AddVertex(k))
	if e, ok := v.(model.Entity); ok {
		switch e.Kind {
		case model.KindUser:
			p.users[e.Name] = id
		case model.KindRole:
			p.roles[e.Name] = id
		}
	}
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
	return p.addEdge(EdgeUA, model.User(user), model.Role(role))
}

// Deassign removes (user, role) from UA, reporting whether it existed.
func (p *Policy) Deassign(user, role string) bool {
	return p.removeEdge(model.User(user), model.Role(role))
}

// AddInherit adds the role-hierarchy edge (senior, junior) ∈ RH: senior
// inherits every privilege reachable from junior.
func (p *Policy) AddInherit(senior, junior string) bool {
	return p.addEdge(EdgeRH, model.Role(senior), model.Role(junior))
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
	return p.addEdge(EdgePA, model.Role(role), priv), nil
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
	kind, err := ClassifyEdge(from, to)
	if err != nil {
		return false, err
	}
	if pr, ok := to.(model.Privilege); ok {
		if err := model.ValidatePrivilege(pr); err != nil {
			return false, err
		}
	}
	return p.addEdge(kind, from, to), nil
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

func (p *Policy) addEdge(kind EdgeKind, from, to model.Vertex) bool {
	fk, tk := p.intern(from), p.intern(to)
	// Entities mentioned inside a privilege term belong to the policy's
	// vocabulary (a privilege ¤(bob,staff) speaks about bob and staff even
	// before any edge touches them), so declare them.
	if pr, ok := to.(model.Privilege); ok {
		for _, e := range model.Entities(pr) {
			p.intern(e)
		}
	}
	pair := [2]string{fk, tk}
	set := p.edgeSet(kind)
	if _, ok := set[pair]; ok {
		return false
	}
	set[pair] = struct{}{}
	p.g.AddEdge(fk, tk)
	return true
}

func (p *Policy) removeEdge(from, to model.Vertex) bool {
	fk, tk := from.Key(), to.Key()
	pair := [2]string{fk, tk}
	for _, set := range []map[[2]string]struct{}{p.ua, p.rh, p.pa} {
		if _, ok := set[pair]; ok {
			delete(set, pair)
			p.g.RemoveEdge(fk, tk)
			return true
		}
	}
	return false
}

func (p *Policy) edgeSet(kind EdgeKind) map[[2]string]struct{} {
	switch kind {
	case EdgeUA:
		return p.ua
	case EdgeRH:
		return p.rh
	default:
		return p.pa
	}
}

// HasEdge reports whether the direct edge (from, to) is present in any
// relation.
func (p *Policy) HasEdge(from, to model.Vertex) bool {
	pair := [2]string{from.Key(), to.Key()}
	for _, set := range []map[[2]string]struct{}{p.ua, p.rh, p.pa} {
		if _, ok := set[pair]; ok {
			return true
		}
	}
	return false
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
		v, ok := p.verts[k]
		if !ok {
			return nil
		}
		out[i] = v
	}
	return out
}

// Vertex returns the vertex with the given canonical key, if present.
func (p *Policy) Vertex(key string) (model.Vertex, bool) {
	v, ok := p.verts[key]
	return v, ok
}

// Users returns the declared user names, sorted.
func (p *Policy) Users() []string { return sortedKeys(p.users) }

// Roles returns the declared role names, sorted.
func (p *Policy) Roles() []string { return sortedKeys(p.roles) }

// HasUser reports whether the user is declared.
func (p *Policy) HasUser(name string) bool { _, ok := p.users[name]; return ok }

// HasRole reports whether the role is declared.
func (p *Policy) HasRole(name string) bool { _, ok := p.roles[name]; return ok }

func sortedKeys(m map[string]int32) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PrivilegeVertices returns every privilege term that occurs as a vertex of
// the policy graph (i.e. as the target of some PA† edge, now or in the
// past), sorted by key. These are the candidates for the vertex-hop case of
// the ordering decision procedure (DESIGN.md D4).
func (p *Policy) PrivilegeVertices() []model.Privilege {
	var out []model.Privilege
	for _, v := range p.verts {
		if pr, ok := v.(model.Privilege); ok {
			out = append(out, pr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// EdgesOf returns the edges of one relation, sorted deterministically.
func (p *Policy) EdgesOf(kind EdgeKind) []Edge {
	set := p.edgeSet(kind)
	pairs := make([][2]string, 0, len(set))
	for pr := range set {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	out := make([]Edge, len(pairs))
	for i, pr := range pairs {
		out[i] = Edge{Kind: kind, From: p.verts[pr[0]], To: p.verts[pr[1]]}
	}
	return out
}

// Edges returns all edges of the policy (UA, then RH, then PA), sorted.
func (p *Policy) Edges() []Edge {
	out := p.EdgesOf(EdgeUA)
	out = append(out, p.EdgesOf(EdgeRH)...)
	out = append(out, p.EdgesOf(EdgePA)...)
	return out
}

// NumEdges returns |UA| + |RH| + |PA†|.
func (p *Policy) NumEdges() int { return len(p.ua) + len(p.rh) + len(p.pa) }

// AuthorizedPerms returns the user privileges (elements of P, not admin
// privileges) reachable from the vertex: the paper's "privileges of the
// user's session" when every role is activated. Sorted by key.
func (p *Policy) AuthorizedPerms(v model.Vertex) []model.UserPrivilege {
	var out []model.UserPrivilege
	for _, pr := range p.reachablePrivileges(v) {
		if q, ok := pr.(model.UserPrivilege); ok {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// AuthorizedPrivileges returns every privilege vertex (user or
// administrative) reachable from v, sorted by key.
func (p *Policy) AuthorizedPrivileges(v model.Vertex) []model.Privilege {
	out := p.reachablePrivileges(v)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func (p *Policy) reachablePrivileges(v model.Vertex) []model.Privilege {
	id := p.g.Lookup(v.Key())
	if id == graph.NoVertex {
		return nil
	}
	reach := p.g.ReachableFrom(id)
	var out []model.Privilege
	for i, in := range reach {
		if !in {
			continue
		}
		if pr, ok := p.verts[p.g.Key(i)].(model.Privilege); ok {
			out = append(out, pr)
		}
	}
	return out
}

// CanActivate reports whether user u may activate role r: u →φ r (§2).
func (p *Policy) CanActivate(user, role string) bool {
	return p.Reaches(model.User(user), model.Role(role))
}

// RolesActivatableBy returns the roles user u can activate, sorted.
func (p *Policy) RolesActivatableBy(user string) []string {
	id := p.g.Lookup(model.User(user).Key())
	if id == graph.NoVertex {
		return nil
	}
	reach := p.g.ReachableFrom(id)
	var out []string
	for i, in := range reach {
		if !in {
			continue
		}
		if e, ok := p.verts[p.g.Key(i)].(model.Entity); ok && e.IsRole() {
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
func (p *Policy) LongestRoleChain() int {
	rg := graph.New()
	for pair := range p.rh {
		rg.AddEdge(pair[0], pair[1])
	}
	return rg.LongestChain()
}

// Clone returns an independent deep copy of the policy. Privilege terms are
// immutable and shared.
func (p *Policy) Clone() *Policy {
	c := New()
	for k, v := range p.verts {
		c.addVertex(k, v)
	}
	for pair := range p.ua {
		c.ua[pair] = struct{}{}
		c.g.AddEdge(pair[0], pair[1])
	}
	for pair := range p.rh {
		c.rh[pair] = struct{}{}
		c.g.AddEdge(pair[0], pair[1])
	}
	for pair := range p.pa {
		c.pa[pair] = struct{}{}
		c.g.AddEdge(pair[0], pair[1])
	}
	return c
}

// Equal reports whether two policies have identical UA, RH and PA† sets.
// Declared-but-unconnected vertices do not affect equality: Definition 3
// identifies a policy with its edge sets.
func (p *Policy) Equal(q *Policy) bool {
	return equalSet(p.ua, q.ua) && equalSet(p.rh, q.rh) && equalSet(p.pa, q.pa)
}

func equalSet(a, b map[[2]string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// Diff lists the edges present in p but not q (removed) and present in q but
// not p (added), per relation kind, deterministically ordered.
func (p *Policy) Diff(q *Policy) (removed, added []Edge) {
	for _, kind := range []EdgeKind{EdgeUA, EdgeRH, EdgePA} {
		ps, qs := p.edgeSet(kind), q.edgeSet(kind)
		for _, e := range p.EdgesOf(kind) {
			if _, ok := qs[[2]string{e.From.Key(), e.To.Key()}]; !ok {
				removed = append(removed, e)
			}
		}
		for _, e := range q.EdgesOf(kind) {
			if _, ok := ps[[2]string{e.From.Key(), e.To.Key()}]; !ok {
				added = append(added, e)
			}
		}
	}
	return removed, added
}

// Validate checks structural well-formedness: every UA edge is user→role,
// every RH edge role→role, every PA edge role→privilege with a grammatical
// privilege term. A freshly built Policy is always valid (the mutators
// enforce sorts); Validate guards deserialized policies.
func (p *Policy) Validate() error {
	for pair := range p.ua {
		f, t := p.verts[pair[0]], p.verts[pair[1]]
		fe, fok := f.(model.Entity)
		te, tok := t.(model.Entity)
		if !fok || !tok || !fe.IsUser() || !te.IsRole() {
			return fmt.Errorf("UA edge %s -> %s is not user -> role", pair[0], pair[1])
		}
	}
	for pair := range p.rh {
		f, t := p.verts[pair[0]], p.verts[pair[1]]
		fe, fok := f.(model.Entity)
		te, tok := t.(model.Entity)
		if !fok || !tok || !fe.IsRole() || !te.IsRole() {
			return fmt.Errorf("RH edge %s -> %s is not role -> role", pair[0], pair[1])
		}
	}
	for pair := range p.pa {
		f, t := p.verts[pair[0]], p.verts[pair[1]]
		fe, fok := f.(model.Entity)
		pr, pok := t.(model.Privilege)
		if !fok || !fe.IsRole() || !pok {
			return fmt.Errorf("PA edge %s -> %s is not role -> privilege", pair[0], pair[1])
		}
		if err := model.ValidatePrivilege(pr); err != nil {
			return fmt.Errorf("PA edge %s: %w", pair[0], err)
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
	s := Stats{
		Users: len(p.users), Roles: len(p.roles),
		UA: len(p.ua), RH: len(p.rh), PA: len(p.pa),
		LongestRoleChainInRH: p.LongestRoleChain(),
	}
	for _, v := range p.verts {
		switch pr := v.(type) {
		case model.UserPrivilege:
			s.UserPrivVertices++
		case model.AdminPrivilege:
			s.AdminPrivVertices++
			if d := pr.Depth(); d > s.MaxPrivilegeDepth {
				s.MaxPrivilegeDepth = d
			}
		}
	}
	return s
}

// DOT renders the policy in Graphviz format; UA edges solid, RH edges bold,
// PA edges dashed; privilege vertices boxed.
func (p *Policy) DOT(name string) string {
	labels := make(map[string]string, len(p.verts))
	for k, v := range p.verts {
		labels[k] = v.String()
	}
	attrs := make(map[string]string)
	for pair := range p.rh {
		attrs[pair[0]+"\x00"+pair[1]] = "style=bold"
	}
	for pair := range p.pa {
		attrs[pair[0]+"\x00"+pair[1]] = "style=dashed"
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
// policy (storage's snapshot) declares a Wire field and decodes the whole
// file in one parse; a *Policy field would be handed its bytes to parse
// again.
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
	p := newSized(w)
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
