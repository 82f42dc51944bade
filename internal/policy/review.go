package policy

import (
	"sort"

	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// This file provides the ANSI RBAC standard's review functions (assigned_
// users, authorized_users, role/permission review) over the policy graph.
// The paper's §2 defers to the standard for these; a deployable monitor
// needs them for audit.

// AssignedUsers returns the users directly assigned to the role (the UA
// relation only), sorted.
func (p *Policy) AssignedUsers(role string) []string {
	var out []string
	if id := p.EntityVertex(model.Role(role)); id != graph.NoVertex {
		for _, f := range p.g.Predecessors(id) {
			if e := p.verts[f].(model.Entity); e.IsUser() {
				out = append(out, e.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// AuthorizedUsers returns every user who can activate the role, directly or
// through the hierarchy (u →φ r), sorted. This is the standard's
// authorized_users review function.
func (p *Policy) AuthorizedUsers(role string) []string {
	var out []string
	for _, u := range p.Users() {
		if p.CanActivate(u, role) {
			out = append(out, u)
		}
	}
	return out
}

// AssignedRoles returns the roles the user is directly assigned to (UA
// edges), sorted. Contrast with RolesActivatableBy, which closes over the
// hierarchy.
func (p *Policy) AssignedRoles(user string) []string {
	var out []string
	if id := p.EntityVertex(model.User(user)); id != graph.NoVertex {
		for _, t := range p.g.Successors(id) {
			out = append(out, p.verts[t].(model.Entity).Name)
		}
	}
	sort.Strings(out)
	return out
}

// UsersWithPerm returns every user who can obtain the user privilege through
// some activatable role, sorted — the standard's permission review.
func (p *Policy) UsersWithPerm(perm model.UserPrivilege) []string {
	var out []string
	for _, u := range p.Users() {
		if p.Reaches(model.User(u), perm) {
			out = append(out, u)
		}
	}
	return out
}

// RolesWithPerm returns every role that reaches the user privilege, sorted.
func (p *Policy) RolesWithPerm(perm model.UserPrivilege) []string {
	var out []string
	for _, r := range p.Roles() {
		if p.Reaches(model.Role(r), perm) {
			out = append(out, r)
		}
	}
	return out
}

// DirectPrivileges returns the privileges assigned to the role by a direct
// PA edge (no inheritance), sorted by key.
func (p *Policy) DirectPrivileges(role string) []model.Privilege {
	var out []model.Privilege
	if id := p.EntityVertex(model.Role(role)); id != graph.NoVertex {
		for _, t := range p.g.Successors(id) {
			if pr, ok := p.verts[t].(model.Privilege); ok {
				out = append(out, pr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Seniors returns the roles from which the given role is reachable through
// RH edges alone (its ancestors in the hierarchy, excluding itself), sorted.
func (p *Policy) Seniors(role string) []string {
	rg := p.roleGraph()
	if rg.Lookup(role) == graph.NoVertex {
		return nil
	}
	var out []string
	for _, r := range p.Roles() {
		if r != role && rg.Reaches(r, role) {
			out = append(out, r)
		}
	}
	return out
}

// Juniors returns the roles reachable from the given role through RH edges
// alone (its descendants, excluding itself), sorted.
func (p *Policy) Juniors(role string) []string {
	rg := p.roleGraph()
	id := rg.Lookup(role)
	if id == graph.NoVertex {
		return nil
	}
	var out []string
	for i, in := range rg.ReachableFrom(id) {
		if name := rg.Key(i); in && name != role {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// roleGraph projects the RH relation into its own digraph.
func (p *Policy) roleGraph() *graph.Digraph {
	rg := graph.New()
	for _, r := range p.Roles() {
		rg.AddVertex(r)
	}
	for name, f := range p.roles {
		for _, t := range p.g.Successors(int(f)) {
			if e, ok := p.verts[t].(model.Entity); ok {
				rg.AddEdge(name, e.Name)
			}
		}
	}
	return rg
}
