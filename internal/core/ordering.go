// Package core implements the paper's primary contribution: the privilege
// ordering Ãφ on administrative privileges (Definition 8), its decision
// procedure (Lemma 1), the refinement relations º (Definition 6) and º†
// (Definition 7), the constructive simulation behind Theorem 1, and the
// ordering-refined command authorizer that the paper's Example 4 motivates.
//
// # The ordering
//
// Definition 8 declares Ãφ the smallest relation with
//
//	(1) p Ãφ p
//	(2) ¤(v2,v3) Ãφ ¤(v1,v4)  if v1 →φ v2 and v3 →φ v4
//	(3) ¤(v2,p1) Ãφ ¤(v1,p2)  if v1 →φ v2 and p1 Ãφ p2
//
// and §4.1 asserts the relation is reflexive and transitive. The paper's own
// Example 6 applies rule (2) with v4 a privilege *vertex* of the policy
// graph and chains derivations transitively; we therefore decide the
// smallest preorder closed under the rules, with rule (2) ranging over
// privilege vertices (see DESIGN.md D3/D4 for the analysis). WeakerOneStep
// retains the literal, non-transitive reading for comparison.
//
// Revocation privileges (♦) are ordered only by equality: the paper's §6
// explicitly leaves a revocation ordering to future work.
//
// # Incremental maintenance
//
// A Reach holds the state that depends on the policy alone, once per policy;
// a Decider is a view over a Reach with only per-query state. Mutation is
// absorbed without rebuilding from scratch:
//
//   - The reachability closure is maintained incrementally by Reach.Sync:
//     edge insertions OR bit-rows forward through the predecessor worklist
//     (graph.Closure); edge removals trigger a rebuild of the closure only.
//     The privilege-vertex tables are re-derived only when the graph's vertex
//     count changes (vertices are never removed; see DESIGN.md D6).
//   - The hash-consing tables of a view (terms/children and the per-term
//     vertex-id caches) are policy-independent: a term's identity never
//     changes, and graph vertex ids are append-only, so the interner survives
//     every mutation unconditionally. Only privilege vertices and nested
//     queries are ever interned: an entity-destination query ¤(x, y) is
//     decided on vertex ids alone (see flatTerm) and leaves no state behind.
//   - A view's memo is split by polarity and kept on the Reach's generation.
//     Ãφ is monotone in →φ, so a purely additive policy delta can only flip
//     negative answers: positive memo entries survive, negative ones are
//     dropped. Any removal since the view's generation clears both.
package core

import (
	"sync"

	"adminrefine/internal/graph"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Reach is the policy-dependent state every decision reads: the closure of
// →φ and the policy's privilege vertices with their graph ids and operands.
// Sync is the only method that writes it; a Reach that is current is read
// concurrently by any number of views. The engine keeps one per replica and
// syncs it, as the writer, before the replica is published.
type Reach struct {
	pol   *policy.Policy
	built sync.Once

	gen          uint64 // policy generation the state reflects
	cut          uint64 // generation of the last update that was not purely additive
	closure      *graph.Closure
	numVerts     int
	privVerts    []model.Privilege
	privVertGIDs []int32    // graph vertex ids of the privilege vertices
	privVertFlat []flatTerm // their operands, for the entity-destination ones
}

// NewReach returns the reachability state of p, built on its first Sync.
func NewReach(p *policy.Policy) *Reach { return &Reach{pol: p} }

// Sync brings the state to the policy's generation, building it on first
// use; it is a no-op while the state is current. A Reach behind its policy is
// mutated, so it must then have no other user.
func (r *Reach) Sync() {
	r.built.Do(func() {
		r.closure = graph.NewClosure(r.pol.Graph())
		r.gen = r.pol.Generation()
		r.derive()
	})
	gen := r.pol.Generation()
	if r.gen == gen {
		return
	}
	if !r.closure.Update() {
		r.cut = gen
	}
	r.gen = gen
	if r.pol.Graph().NumVertices() != r.numVerts {
		r.derive()
	}
}

// derive rebuilds the privilege-vertex tables. An operand absent here stays
// absent until the vertex count moves again.
func (r *Reach) derive() {
	g := r.pol.Graph()
	r.numVerts = g.NumVertices()
	r.privVerts = r.pol.PrivilegeVertices()
	r.privVertGIDs = make([]int32, len(r.privVerts))
	r.privVertFlat = make([]flatTerm, len(r.privVerts))
	for i, pv := range r.privVerts {
		r.privVertGIDs[i] = int32(g.Lookup(pv.Key()))
		r.privVertFlat[i] = flatShape(pv)
		r.resolveFlat(&r.privVertFlat[i])
	}
}

// views recycles deciders across every Reach. A pool of its own per Reach
// would keep the Reach, and the policy it reads, reachable from the runtime
// until the second GC after the last use. A new view is one allocation: its
// maps are made by the first nested query that writes them.
var views = sync.Pool{New: func() any { return new(Decider) }}

// Borrow returns a view of r for exclusive use until Release. Views share
// r's closure and tables and keep their own per-query state; a recycled view
// that last served another Reach starts empty.
func (r *Reach) Borrow() *Decider {
	d := views.Get().(*Decider)
	if d.reach != r {
		d.reach, d.gen, d.pvNum, d.privVertIDs = r, 0, 0, d.privVertIDs[:0]
		clear(d.memoPos)
		clear(d.memoNeg)
		clear(d.terms)
		d.children, d.srcEnts, d.srcVIDs = d.children[:0], d.srcEnts[:0], d.srcVIDs[:0]
		d.dstEnts, d.dstVIDs = d.dstEnts[:0], d.dstVIDs[:0]
	}
	return d
}

// Release returns a view that Borrow returned.
func (d *Decider) Release() { views.Put(d) }

// Decider answers p Ãφ q queries as a view over a Reach, memoising subterm
// decisions; each query syncs the Reach first (see the package comment for
// what survives a mutation). Not safe for concurrent use; views of one
// current Reach may run concurrently.
type Decider struct {
	reach *Reach
	gen   uint64 // reach generation the memo reflects

	pvNum       int      // reach vertex count privVertIDs reflects
	privVertIDs []termID // interned ids of reach.privVerts, for nested queries

	// memo is split by polarity so additive policy deltas can drop the
	// (possibly flipped) negatives while keeping the positives.
	memoPos map[[2]termID]struct{}
	memoNeg map[[2]termID]struct{}

	// Privilege terms are hash-consed into dense termIDs so that structural
	// equality is an integer comparison and memoisation never hashes a whole
	// nested term. Each level of a term contributes one table entry keyed by
	// its own small payload plus the child's id, so interning a depth-d term
	// costs O(d) once and the ordering recursion stays linear (Lemma 1).
	terms    map[levelKey]termID
	children []termID // termID -> id of the nested privilege, or noChild

	// Per-term vertex-id caches: the graph ids of an admin term's source and
	// (entity) destination, so the hot reachability checks are two integer
	// comparisons plus a bit test with no map lookups. graph.NoVertex marks
	// an operand the term lacks or whose vertex was not in the graph when
	// last looked up; the latter is retried on use (vertex ids are
	// append-only, so a resolved id never goes stale).
	srcEnts []model.Entity
	srcVIDs []int32
	dstEnts []model.Entity
	dstVIDs []int32
}

// termID identifies a hash-consed privilege term inside one Decider.
type termID int32

// noChild marks a term whose destination is not a privilege.
const noChild termID = -1

// levelKey identifies one grammar level by its constructor and non-privilege
// operands — comparable as is, so interning a level builds no string; child
// is the interned nested privilege, if any.
type levelKey struct {
	tag      byte // 'q' user privilege, 'e' entity destination, 'n' nested destination
	op       model.Op
	src, dst model.Entity // a user privilege keeps (action, object) in the two names
	child    termID
}

// flatTerm is an entity-destination admin term a(src, dst) — the shape of
// every privilege a command asks for — with its operands resolved to graph
// vertex ids (graph.NoVertex when absent). Between two such terms only rules
// (1) and (2) of Definition 8 can fire, so they are decided on these ids
// with no interning and no memo entry (flatWeaker).
type flatTerm struct {
	ok       bool // false: not an entity-destination admin term
	op       model.Op
	src, dst model.Entity
	sv, dv   int32
}

// flatShape returns p's operands when it is an entity-destination admin
// term, their vertex ids not yet looked up.
func flatShape(p model.Privilege) flatTerm {
	if a, ok := p.(model.AdminPrivilege); ok {
		if y, ok := a.Dst.(model.Entity); ok {
			return flatTerm{ok: true, op: a.Op, src: a.Src, dst: y, sv: graph.NoVertex, dv: graph.NoVertex}
		}
	}
	return flatTerm{}
}

// resolveFlat looks up the operands that have no vertex id (yet).
func (r *Reach) resolveFlat(t *flatTerm) {
	if t.sv < 0 {
		t.sv = int32(r.pol.EntityVertex(t.src))
	}
	if t.dv < 0 {
		t.dv = int32(r.pol.EntityVertex(t.dst))
	}
}

// NewDecider builds a Decider over a private Reach of the policy, its
// closure built now: the standalone form for analyses, the CLI and tests.
func NewDecider(p *policy.Policy) *Decider {
	d := NewReach(p).Borrow()
	d.check()
	return d
}

// check syncs the Reach and brings the memo to its generation: the
// negatives are dropped on any move, the positives too when an update since
// the memo's generation was not purely additive.
func (d *Decider) check() {
	r := d.reach
	r.Sync()
	if d.gen != r.gen {
		if r.cut > d.gen {
			clear(d.memoPos)
		}
		clear(d.memoNeg)
		d.gen = r.gen
	}
}

// privIDs returns the interned ids of the Reach's privilege vertices,
// interning them again once its vertex count has moved.
func (d *Decider) privIDs() []termID {
	if d.pvNum != d.reach.numVerts {
		d.pvNum = d.reach.numVerts
		d.privVertIDs = d.privVertIDs[:0]
		for _, pv := range d.reach.privVerts {
			d.privVertIDs = append(d.privVertIDs, d.id(pv))
		}
	}
	return d.privVertIDs
}

// id interns a privilege term, returning its dense identifier. Two terms
// receive the same id iff they are structurally identical.
func (d *Decider) id(p model.Privilege) termID {
	switch t := p.(type) {
	case model.UserPrivilege:
		return d.intern(levelKey{tag: 'q', src: model.Entity{Name: t.Action}, dst: model.Entity{Name: t.Object}, child: noChild},
			model.Entity{}, model.Entity{})
	case model.AdminPrivilege:
		switch dst := t.Dst.(type) {
		case model.Entity:
			return d.intern(levelKey{tag: 'e', op: t.Op, src: t.Src, dst: dst, child: noChild}, t.Src, dst)
		case model.Privilege:
			return d.intern(levelKey{tag: 'n', op: t.Op, src: t.Src, child: d.id(dst)}, t.Src, model.Entity{})
		}
	}
	// Ungrammatical terms (nil or foreign destinations) never equal anything:
	// give each occurrence a fresh id.
	return d.addTerm(noChild, model.Entity{}, model.Entity{})
}

func (d *Decider) intern(key levelKey, src, dst model.Entity) termID {
	if id, ok := d.terms[key]; ok {
		return id
	}
	id := d.addTerm(key.child, src, dst)
	if d.terms == nil {
		d.terms = make(map[levelKey]termID)
	}
	d.terms[key] = id
	return id
}

// addTerm appends one term to the per-term tables. The zero Entity (a term
// without that operand) resolves to graph.NoVertex.
func (d *Decider) addTerm(child termID, src, dst model.Entity) termID {
	id := termID(len(d.children))
	d.children = append(d.children, child)
	d.srcEnts = append(d.srcEnts, src)
	d.srcVIDs = append(d.srcVIDs, int32(d.reach.pol.EntityVertex(src)))
	d.dstEnts = append(d.dstEnts, dst)
	d.dstVIDs = append(d.dstVIDs, int32(d.reach.pol.EntityVertex(dst)))
	return id
}

// resolveVID returns the cached graph vertex id of a term operand, retrying
// the lookup for operands that were absent at interning time (the vertex may
// have been added since). Resolved ids are permanent: vertices are never
// removed.
func (d *Decider) resolveVID(vids []int32, ents []model.Entity, id termID) int32 {
	if vids[id] < 0 {
		vids[id] = int32(d.reach.pol.EntityVertex(ents[id]))
	}
	return vids[id]
}

// entReaches reports from →φ to for two entity operands given their vertex
// ids. Operands missing from the graph reach only themselves.
func (d *Decider) entReaches(f, t int32, from, to model.Entity) bool {
	if f >= 0 && t >= 0 {
		return d.reach.closure.Reaches(int(f), int(t))
	}
	return from == to
}

// srcReaches reports Src(from) →φ Src(to) over cached vertex ids.
func (d *Decider) srcReaches(from, to termID) bool {
	return d.entReaches(d.resolveVID(d.srcVIDs, d.srcEnts, from), d.resolveVID(d.srcVIDs, d.srcEnts, to),
		d.srcEnts[from], d.srcEnts[to])
}

// dstReaches reports Dst(from) →φ Dst(to) for entity destinations.
func (d *Decider) dstReaches(from, to termID) bool {
	return d.entReaches(d.resolveVID(d.dstVIDs, d.dstEnts, from), d.resolveVID(d.dstVIDs, d.dstEnts, to),
		d.dstEnts[from], d.dstEnts[to])
}

// flatWeaker decides h Ãφ q between entity-destination terms: rule (1), else
// rule (2) — rule (3) and the privilege-vertex hop need a privilege
// destination, which neither side has.
func (d *Decider) flatWeaker(h, q *flatTerm) bool {
	if h.op == q.op && h.src == q.src && h.dst == q.dst {
		return true // rule (1)
	}
	if h.op != model.OpGrant || q.op != model.OpGrant {
		return false // ♦ privileges are ordered by equality only
	}
	return d.entReaches(q.sv, h.sv, q.src, h.src) && d.entReaches(h.dv, q.dv, h.dst, q.dst)
}

// ResetMemo clears the memoisation table while keeping the reachability
// closure and the interning tables. Benchmarks use it to measure cold
// decision cost without paying the closure build on every iteration.
func (d *Decider) ResetMemo() {
	d.check()
	clear(d.memoPos)
	clear(d.memoNeg)
}

// reaches reports v →φ v' over canonical keys using the cached closure.
// Cold-path callers (derivations, enumeration) use it; the decision
// procedure itself runs on cached vertex ids.
func (d *Decider) reaches(fromKey, toKey string) bool {
	if fromKey == toKey {
		return true
	}
	g := d.reach.pol.Graph()
	f, t := g.Lookup(fromKey), g.Lookup(toKey)
	if f == graph.NoVertex || t == graph.NoVertex {
		return false
	}
	return d.reach.closure.Reaches(f, t)
}

// Weaker reports p Ãφ q: q is (possibly equal to or) weaker than p, so a
// holder of p is implicitly authorized for q. This is the transitive
// preorder of DESIGN.md D3.
func (d *Decider) Weaker(p, q model.Privilege) bool {
	d.check()
	return d.weaker(p, q)
}

func (d *Decider) weaker(p, q model.Privilege) bool {
	if p == nil || q == nil {
		return false
	}
	return d.weakerID(p, q, d.id(p), d.id(q))
}

// weakerID is the memoised core; pid/qid are the interned ids of p/q, so
// rule (1) and the memo lookup are integer operations.
func (d *Decider) weakerID(p, q model.Privilege, pid, qid termID) bool {
	if pid == qid {
		return true // rule (1)
	}
	key := [2]termID{pid, qid}
	if _, ok := d.memoPos[key]; ok {
		return true
	}
	if _, ok := d.memoNeg[key]; ok {
		return false
	}
	res := d.weakerUncached(p, q, pid, qid)
	if d.memoPos == nil {
		d.memoPos, d.memoNeg = make(map[[2]termID]struct{}), make(map[[2]termID]struct{})
	}
	if res {
		d.memoPos[key] = struct{}{}
	} else {
		d.memoNeg[key] = struct{}{}
	}
	return res
}

func (d *Decider) weakerUncached(p, q model.Privilege, pid, qid termID) bool {
	qa, ok := q.(model.AdminPrivilege)
	if !ok {
		// q is a user privilege: only rule (1) applies, already checked.
		return false
	}
	if qa.Op != model.OpGrant {
		// ♦ privileges are ordered by equality only.
		return false
	}
	pa, ok := p.(model.AdminPrivilege)
	if !ok || pa.Op != model.OpGrant {
		return false
	}
	// q = ¤(x, y), p = ¤(a, b): rules (2)/(3) require x →φ a ...
	if !d.srcReaches(qid, pid) {
		return false
	}
	// ... and the destination of p to dominate the destination of q.
	return d.below(pa.Dst, qa.Dst, pid, qid)
}

// below captures the destination side of the rules: b = Dst(pid) dominates
// y = Dst(qid) when a derivation chain can rewrite destination b into
// destination y.
func (d *Decider) below(b, y model.Vertex, pid, qid termID) bool {
	switch yt := y.(type) {
	case model.Entity:
		if _, ok := b.(model.Entity); !ok {
			// A privilege destination never rewrites back to an entity.
			return false
		}
		return d.dstReaches(pid, qid) // rule (2): v3 →φ v4
	case model.Privilege:
		if bp, ok := b.(model.Privilege); ok {
			return d.weakerID(bp, yt, d.children[pid], d.children[qid]) // rule (3): p1 Ãφ p2
		}
		// b is an entity and y a privilege term: rule (2) can hop from the
		// vertex b to any privilege vertex P' of the policy graph that b
		// reaches (Example 6), after which rule (3) chains P' Ãφ y.
		bv := d.resolveVID(d.dstVIDs, d.dstEnts, pid)
		if bv < 0 {
			return false // b is not a vertex of the policy graph
		}
		yid, r, ids := d.children[qid], d.reach, d.privIDs()
		for i, pv := range r.privVerts {
			if r.closure.Reaches(int(bv), int(r.privVertGIDs[i])) &&
				d.weakerID(pv, yt, ids[i], yid) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// WeakerOneStep decides the literal, non-transitive reading of Definition 8:
// a single application of rule (1), (2) or (3), with rule (3) recursing into
// the same relation, and rule (2) ranging over privilege vertices exactly as
// Example 6 requires. Provided for the DESIGN.md D3 gap analysis; Weaker is
// the relation every other component uses.
func (d *Decider) WeakerOneStep(p, q model.Privilege) bool {
	d.check()
	return d.oneStep(p, q)
}

func (d *Decider) oneStep(p, q model.Privilege) bool {
	if p == nil || q == nil {
		return false
	}
	if d.id(p) == d.id(q) {
		return true // rule (1)
	}
	qa, ok := q.(model.AdminPrivilege)
	if !ok || qa.Op != model.OpGrant {
		return false
	}
	pa, ok := p.(model.AdminPrivilege)
	if !ok || pa.Op != model.OpGrant {
		return false
	}
	if !d.reaches(qa.Src.Key(), pa.Src.Key()) {
		return false
	}
	// Rule (2): both destinations are graph vertices with v3 →φ v4. The
	// destination of q may be an entity or a privilege vertex; a privilege
	// destination of q only qualifies when it is literally a vertex of φ
	// reachable from p's destination vertex.
	if be, ok := pa.Dst.(model.Entity); ok {
		switch yt := qa.Dst.(type) {
		case model.Entity:
			return d.reaches(be.Key(), yt.Key())
		case model.Privilege:
			ytKey := yt.Key()
			return d.reach.pol.Graph().Lookup(ytKey) != graph.NoVertex &&
				d.reaches(be.Key(), ytKey)
		}
		return false
	}
	// Rule (3): both destinations are privilege terms with p1 Ãφ p2 (the
	// premise refers to the relation being defined, hence the recursion).
	bp, ok := pa.Dst.(model.Privilege)
	if !ok {
		return false
	}
	yp, ok := qa.Dst.(model.Privilege)
	if !ok {
		return false
	}
	return d.oneStep(bp, yp)
}

// Weaker is a convenience wrapper constructing a throwaway Decider. Use a
// Decider directly for repeated queries against one policy.
func Weaker(p *policy.Policy, strong, weak model.Privilege) bool {
	return NewDecider(p).Weaker(strong, weak)
}

// Holds reports the literal Definition 5 authorization condition: user u
// reaches the privilege vertex q in the policy graph. It answers from the
// cached closure, so repeated strict checks avoid the per-query DFS that
// policy.Reaches performs.
func (d *Decider) Holds(user string, q model.Privilege) bool {
	d.check()
	uv := d.reach.pol.EntityVertex(model.User(user))
	pv := d.reach.pol.Graph().Lookup(q.Key())
	if uv == graph.NoVertex || pv == graph.NoVertex {
		return false
	}
	return d.reach.closure.Reaches(uv, pv)
}

// query is the privilege a held-stronger scan decides against. An
// entity-destination term is decided on its operands' vertex ids and never
// interned; any other term is hash-consed. Either is looked up only once
// some privilege vertex the actor reaches needs comparing with it: an actor
// who holds nothing is denied on closure bit tests alone.
type query struct {
	priv  model.Privilege
	flat  flatTerm
	qid   termID // noChild until interned
	ready bool   // this scan has resolved flat's vertex ids, or interned qid
}

func newQuery(q model.Privilege) query {
	return query{priv: q, flat: flatShape(q), qid: noChild}
}

// nextHeld returns the index of the first privilege vertex at or after from
// that the vertex uv reaches and that is at least as strong as q, or -1.
func (d *Decider) nextHeld(uv int, q *query, from int) int {
	r := d.reach
	for i := from; i < len(r.privVerts); i++ {
		if !r.closure.Reaches(uv, int(r.privVertGIDs[i])) {
			continue
		}
		if !q.ready {
			q.ready = true
			if q.flat.ok {
				r.resolveFlat(&q.flat)
			} else if q.qid == noChild {
				q.qid = d.id(q.priv)
			}
		}
		if q.flat.ok {
			if h := &r.privVertFlat[i]; h.ok && d.flatWeaker(h, &q.flat) {
				return i
			}
		} else if d.weakerID(r.privVerts[i], q.priv, d.privIDs()[i], q.qid) {
			return i
		}
	}
	return -1
}

// HeldStronger reports whether user u holds (reaches) some privilege h of
// the policy with h Ãφ q, returning the first such h. This is the paper's
// implicit authorization: "users with administrative privileges are
// implicitly authorized for weaker administrative privileges" (§4.1).
func (d *Decider) HeldStronger(user string, q model.Privilege) (model.Privilege, bool) {
	d.check()
	uv := d.reach.pol.EntityVertex(model.User(user))
	if uv == graph.NoVertex {
		return nil, false
	}
	qq := newQuery(q)
	if i := d.nextHeld(uv, &qq, 0); i >= 0 {
		return d.reach.privVerts[i], true
	}
	return nil, false
}
