package core

import (
	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// RefinedAuthorizer implements the paper's practical proposal (§4.1,
// Example 4): a command cmd(u, a, v, v') is authorized when u holds any
// privilege h with h Ãφ a(v, v'). By rule (1) every privilege is at least as
// strong as itself, so the refined authorizer accepts a strict superset of
// the commands Definition 5 accepts, and by Theorem 1 every extra command it
// accepts leads to a policy that an allowed strict command refines.
//
// RefinedAuthorizer satisfies command.Authorizer. It decides with a Decider
// and may be reused across policy mutations (the Decider self-invalidates),
// but is not safe for concurrent use.
type RefinedAuthorizer struct {
	d *Decider
}

// NewRefinedAuthorizer builds the ordering-refined authorizer for a policy.
func NewRefinedAuthorizer(p *policy.Policy) *RefinedAuthorizer {
	return &RefinedAuthorizer{d: NewDecider(p)}
}

// Authorize implements command.Authorizer. The justification is the held
// stronger privilege.
func (r *RefinedAuthorizer) Authorize(p *policy.Policy, c command.Command) (model.Privilege, bool) {
	target, err := c.Privilege()
	if err != nil {
		return nil, false
	}
	if r.d.reach.pol != p {
		// Authorizing against a different policy object: use a fresh decider.
		return NewDecider(p).HeldStronger(c.Actor, target)
	}
	return r.d.HeldStronger(c.Actor, target)
}

// Name implements command.Authorizer.
func (r *RefinedAuthorizer) Name() string { return "refined" }

// StrictAuthorizer implements the literal Definition 5 check like
// command.Strict, but answers from a Decider's incrementally maintained
// reachability closure instead of a per-query DFS. Same semantics, O(1)
// per check after the closure is warm. Not safe for concurrent use.
type StrictAuthorizer struct {
	d *Decider
}

// NewStrictAuthorizer builds the closure-backed strict authorizer.
func NewStrictAuthorizer(p *policy.Policy) *StrictAuthorizer {
	return &StrictAuthorizer{d: NewDecider(p)}
}

// Authorizer returns the write-path authorizer deciding with d: the
// ordering-refined one when refined is set, else the strict one.
func (d *Decider) Authorizer(refined bool) command.Authorizer {
	if refined {
		return &RefinedAuthorizer{d: d}
	}
	return &StrictAuthorizer{d: d}
}

// Authorize implements command.Authorizer with Definition 5 semantics.
func (s *StrictAuthorizer) Authorize(p *policy.Policy, c command.Command) (model.Privilege, bool) {
	priv, err := c.Privilege()
	if err != nil {
		return nil, false
	}
	if s.d.reach.pol != p {
		return command.Strict{}.Authorize(p, c)
	}
	if s.d.Holds(c.Actor, priv) {
		return priv, true
	}
	return nil, false
}

// Name implements command.Authorizer.
func (s *StrictAuthorizer) Name() string { return "strict" }
