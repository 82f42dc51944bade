package core

import (
	"adminrefine/internal/command"
	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// This file is the fingerprint-indexed authorization fast path: the decision
// kernel behind Snapshot.Authorize once the boundary has interned the
// command (see command.Interner). The first query for a fingerprint resolves
// the command's entities — actor, edge source, edge destination — to graph
// vertex ids in a dense per-fingerprint table; every later query is integer
// indexing and closure bit tests, with no map hits and no allocations.

// fpState caches what one fingerprint resolves to inside this Decider.
// Vertex ids are append-only in the graph, and term ids are stable for the
// Decider's lifetime, so a resolved state never goes stale; operands that
// were absent from the graph (graph.NoVertex) are retried on use, exactly
// like the per-term vertex caches.
type fpState struct {
	qid     termID // interned id of a nested authorizing privilege, on first need
	actVID  int32  // graph vertex id of the actor
	srcVID  int32  // ... of the privilege's source (refined path)
	dstVID  int32  // ... of its entity destination (refined path)
	privVID int32  // ... of the privilege vertex itself (strict path)
	privKey string // canonical key of the privilege, for retrying privVID
	ready   bool
}

// AuthorizeFP decides the interned command described by info: under
// refined=false the literal Definition 5 check (actor reaches the privilege
// vertex), under refined=true the §4.1 ordering check (actor holds a
// privilege at least as strong). The justification matches HeldStronger /
// Holds exactly. info.Priv must be non-nil (ill-formed commands are filtered
// at the boundary).
func (d *Decider) AuthorizeFP(info *command.FPInfo, refined bool) (model.Privilege, bool) {
	d.check()
	fp := int(info.FP)
	if fp >= len(d.fpTab) {
		d.growFPTab(fp)
	}
	st := &d.fpTab[fp]
	if !st.ready {
		*st = fpState{qid: noChild, actVID: graph.NoVertex, srcVID: graph.NoVertex,
			dstVID: graph.NoVertex, privVID: graph.NoVertex, ready: true}
	}
	if st.actVID < 0 {
		st.actVID = int32(d.pol.EntityVertex(model.User(info.Cmd.Actor)))
	}
	act := int(st.actVID)
	if act < 0 {
		// An actor absent from the graph reaches only itself; no privilege
		// vertex is an actor, so the command is denied in both regimes.
		return nil, false
	}
	if refined {
		q := newQuery(info.Priv)
		q.qid, q.flat.sv, q.flat.dv = st.qid, st.srcVID, st.dstVID
		i := d.nextHeld(act, &q, 0)
		st.qid, st.srcVID, st.dstVID = q.qid, q.flat.sv, q.flat.dv
		if i < 0 {
			return nil, false
		}
		return d.privVerts[i], true
	}
	// Only the strict check addresses the privilege vertex itself; deriving
	// the canonical key here (not at intern time) keeps refined-mode
	// interning free of it.
	if st.privVID < 0 {
		if st.privKey == "" {
			st.privKey = info.Priv.Key()
		}
		st.privVID = int32(d.pol.Graph().Lookup(st.privKey))
	}
	if st.privVID >= 0 && d.closure.Reaches(act, int(st.privVID)) {
		return info.Priv, true
	}
	return nil, false
}

// growFPTab extends the fingerprint table to cover fp (amortised doubling).
func (d *Decider) growFPTab(fp int) {
	n := len(d.fpTab) * 2
	if n <= fp {
		n = fp + 1
	}
	if n < 64 {
		n = 64
	}
	grown := make([]fpState, n)
	copy(grown, d.fpTab)
	d.fpTab = grown
}
