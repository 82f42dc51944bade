package core

import (
	"sync/atomic"

	"adminrefine/internal/command"
	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// This file is the fingerprint-indexed authorization fast path: the decision
// kernel behind Snapshot.Authorize once the boundary has interned the
// command (see command.Interner). The first query for a command resolves its
// entities — actor, edge source, edge destination — and, on the strict path,
// its privilege vertex to graph vertex ids, and keeps them in the command's
// FPInfo, where every decider of the engine finds them; every later query is
// atomic loads and closure bit tests, with no map hits and no allocations.
// The decider keeps nothing per command.

// AuthorizeFP decides the interned command described by info: under
// refined=false the literal Definition 5 check (actor reaches the privilege
// vertex), under refined=true the §4.1 ordering check (actor holds a
// privilege at least as strong). The justification matches HeldStronger /
// Holds exactly; a strict one is it.PrivilegeOf(info). info must be
// well-formed (ill-formed commands are filtered at the boundary) and interned
// by it, and every policy the deciders sharing it read must give a vertex the
// same id — the replicas of one engine do, and so does one policy as it
// grows.
func (d *Decider) AuthorizeFP(it *command.Interner, info *command.FPInfo, refined bool) (model.Privilege, bool) {
	d.check()
	c := &info.Cmd
	act := d.reach.sharedEntity(&info.Actor, model.User(c.Actor))
	if act < 0 {
		// An actor absent from the graph reaches only itself; no privilege
		// vertex is an actor, so the command is denied in both regimes.
		return nil, false
	}
	src := c.From.(model.Entity)
	if refined {
		i := -1
		if dst, ok := c.To.(model.Entity); ok {
			// The operands' ids are looked up only once the scan needs them
			// (resolveFlat), and kept for every decider after it.
			sv, dv := d.reach.local(info.Src.Load()), d.reach.local(info.Dst.Load())
			q := query{flat: flatTerm{ok: true, op: c.Op, src: src, dst: dst, sv: sv, dv: dv}, qid: noChild}
			i = d.nextHeld(act, &q, 0)
			if sv < 0 && q.flat.sv >= 0 {
				info.Src.Store(q.flat.sv)
			}
			if dv < 0 && q.flat.dv >= 0 {
				info.Dst.Store(q.flat.dv)
			}
		} else {
			// A nested destination is interned in this decider's term table.
			q := newQuery(model.AdminPrivilege{Op: c.Op, Src: src, Dst: c.To})
			i = d.nextHeld(act, &q, 0)
		}
		if i < 0 {
			return nil, false
		}
		return d.reach.privVerts[i], true
	}
	if pv := d.reach.privVertex(&info.PrivV, c, src); pv >= 0 && d.reach.closure.Reaches(act, pv) {
		return it.PrivilegeOf(info), true
	}
	return nil, false
}

// local reads a shared vertex id on this policy: an id past its vertex count
// names a vertex the policy (a replica that is behind) does not have yet.
func (r *Reach) local(id int32) int32 {
	if int(id) >= r.numVerts {
		return graph.NoVertex
	}
	return id
}

// sharedEntity returns e's vertex id on this policy, looking it up and
// keeping it in v when no decider has resolved it yet.
func (r *Reach) sharedEntity(v *atomic.Int32, e model.Entity) int {
	id := v.Load()
	if id < 0 {
		if id = int32(r.pol.EntityVertex(e)); id >= 0 {
			v.Store(id)
		}
		return int(id)
	}
	return int(r.local(id))
}

// privVertex returns the vertex id of the command's privilege on this
// policy, or graph.NoVertex. Only the strict check addresses the privilege
// vertex; its key is built for the lookup only, and an absent vertex is
// recorded with the vertex count it was looked up at (as -2-n), so a deny is
// looked up again only once the graph has grown past it.
func (r *Reach) privVertex(v *atomic.Int32, c *command.Command, src model.Entity) int {
	id := v.Load()
	switch {
	case id >= 0:
		return int(r.local(id))
	case id <= -2 && int(-2-id) >= r.numVerts:
		return graph.NoVertex
	}
	key := model.AdminPrivilege{Op: c.Op, Src: src, Dst: c.To}.Key()
	found := r.pol.Graph().Lookup(key)
	next := int32(found)
	if found < 0 {
		next = int32(-2 - r.numVerts)
	}
	v.CompareAndSwap(id, next)
	return found
}
