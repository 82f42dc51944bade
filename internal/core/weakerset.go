package core

import (
	"sort"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// DefaultNestBound returns the nesting bound conjectured by Remark 2 for
// enumerating weaker privileges: the depth of the privilege itself plus the
// length of the longest chain in RH. Beyond that depth additional nestings
// only add redundant administrative steps.
func DefaultNestBound(p *policy.Policy, priv model.Privilege) int {
	return priv.Depth() + p.LongestRoleChain()
}

// WeakerSet enumerates every privilege q with priv Ãφ q whose nesting depth
// does not exceed maxDepth and whose entities come from the policy's
// universe. Example 6 shows the unbounded set is infinite whenever a policy
// assigns a privilege speaking about a role that reaches it, so a depth
// bound is mandatory; DefaultNestBound supplies Remark 2's choice.
//
// The enumeration runs the derivation rules forward to a fixpoint, which is
// sound and complete up to the depth bound because Ãφ is the transitive
// closure of single rule applications. The result is sorted by (depth, key)
// and always contains priv itself (rule 1).
func (d *Decider) WeakerSet(priv model.Privilege, maxDepth int) []model.Privilege {
	d.check()
	if priv == nil {
		return nil
	}
	seen := map[string]model.Privilege{priv.Key(): priv}
	work := []model.Privilege{priv}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		for _, next := range d.successors(cur, maxDepth) {
			k := next.Key()
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = next
			work = append(work, next)
		}
	}
	out := make([]model.Privilege, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Depth(), out[j].Depth()
		if di != dj {
			return di < dj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// successors applies the rules forward once from a known-weaker term,
// producing candidate weaker terms within the depth bound.
func (d *Decider) successors(p model.Privilege, maxDepth int) []model.Privilege {
	pa, ok := p.(model.AdminPrivilege)
	if !ok || pa.Op != model.OpGrant {
		return nil // user privileges and ♦ privileges have no strict weakenings
	}
	var out []model.Privilege

	// Candidate sources v1 with v1 →φ v2 (the entities of the policy that
	// reach p's source).
	var sources []model.Entity
	for _, name := range d.reach.pol.Users() {
		u := model.User(name)
		if d.reaches(u.Key(), pa.Src.Key()) {
			sources = append(sources, u)
		}
	}
	for _, name := range d.reach.pol.Roles() {
		r := model.Role(name)
		if d.reaches(r.Key(), pa.Src.Key()) {
			sources = append(sources, r)
		}
	}

	emit := func(src model.Entity, dst model.Vertex) {
		cand := model.AdminPrivilege{Op: model.OpGrant, Src: src, Dst: dst}
		if cand.Validate() != nil {
			return // e.g. user source with privilege destination
		}
		if cand.Depth() > maxDepth {
			return
		}
		out = append(out, cand)
	}

	switch dst := pa.Dst.(type) {
	case model.Entity:
		// Rule (2): destinations v4 with v3 →φ v4 — role entities ...
		for _, name := range d.reach.pol.Roles() {
			r := model.Role(name)
			if !d.reaches(dst.Key(), r.Key()) {
				continue
			}
			for _, src := range sources {
				emit(src, r)
			}
		}
		// ... and privilege vertices of the policy graph (Example 6 hop).
		for _, pv := range d.reach.privVerts {
			if !d.reaches(dst.Key(), pv.Key()) {
				continue
			}
			for _, src := range sources {
				emit(src, pv)
			}
		}
	case model.Privilege:
		// Rule (3): nested destinations p2 with p1 Ãφ p2, enumerated
		// recursively within the remaining depth budget.
		for _, inner := range d.WeakerSet(dst, maxDepth-1) {
			for _, src := range sources {
				emit(src, inner)
			}
		}
	}
	return out
}
