// Package command implements administrative commands (Definition 4) and the
// administrative transition function ⇒ (Definition 5) of Dekker & Etalle.
//
// A command cmd(u, a, v, v') asks the reference monitor, on behalf of user
// u, to add (a = ¤) or remove (a = ♦) the edge (v, v'). Definition 5 makes
// the transition relation total: an authorized command mutates the policy;
// an unauthorized or ill-sorted one is consumed without effect.
//
// Authorization is pluggable through the Authorizer interface so that the
// literal Definition 5 check (Strict) and the paper's ordering-refined check
// (provided by package core) share one execution engine.
package command

import (
	"fmt"
	"strings"

	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Command is an administrative command cmd(u, a, v, v') (Definition 4).
type Command struct {
	// Actor is the user u issuing the command.
	Actor string
	// Op is ¤ (add edge) or ♦ (remove edge).
	Op model.Op
	// From, To are the edge endpoints v, v' ∈ U ∪ R ∪ P†.
	From model.Vertex
	To   model.Vertex
}

// Grant builds cmd(actor, ¤, from, to).
func Grant(actor string, from, to model.Vertex) Command {
	return Command{Actor: actor, Op: model.OpGrant, From: from, To: to}
}

// Revoke builds cmd(actor, ♦, from, to).
func Revoke(actor string, from, to model.Vertex) Command {
	return Command{Actor: actor, Op: model.OpRevoke, From: from, To: to}
}

// String renders the command as in the paper, e.g.
// "cmd(jane, grant, bob, staff)".
func (c Command) String() string {
	from, to := "<nil>", "<nil>"
	if c.From != nil {
		from = c.From.String()
	}
	if c.To != nil {
		to = c.To.String()
	}
	return fmt.Sprintf("cmd(%s, %s, %s, %s)", c.Actor, c.Op, from, to)
}

// Key returns a canonical identity for the command.
func (c Command) Key() string {
	from, to := "", ""
	if c.From != nil {
		from = c.From.Key()
	}
	if c.To != nil {
		to = c.To.Key()
	}
	return c.Actor + "\x00" + c.Op.Symbol() + "\x00" + from + "\x00" + to
}

// Privilege returns the administrative privilege a(v, v') that authorizes
// this command under Definition 5, or an error if the command is ill-sorted
// (no grammatical privilege speaks about the edge).
func (c Command) Privilege() (model.AdminPrivilege, error) {
	if c.Actor == "" {
		return model.AdminPrivilege{}, fmt.Errorf("command has no actor")
	}
	src, ok := c.From.(model.Entity)
	if !ok {
		return model.AdminPrivilege{}, fmt.Errorf("command %s: edge source must be a user or role", c)
	}
	return model.NewAdmin(c.Op, src, c.To)
}

// Validate reports whether the command is well-sorted: its edge must be
// admitted by one of UA/RH/PA and its authorizing privilege grammatical.
func (c Command) Validate() error {
	if _, err := c.Privilege(); err != nil {
		return err
	}
	_, err := policy.ClassifyEdge(c.From, c.To)
	return err
}

// Queue is a command queue cq (Definition 4): commands execute head first.
type Queue []Command

// String renders the queue as "cmd(...) : cmd(...) : ε".
func (q Queue) String() string {
	if len(q) == 0 {
		return "ε"
	}
	parts := make([]string, 0, len(q)+1)
	for _, c := range q {
		parts = append(parts, c.String())
	}
	parts = append(parts, "ε")
	return strings.Join(parts, " : ")
}

// Authorizer decides whether a policy authorizes a command. Implementations:
// Strict (this package, literal Definition 5) and the ordering-refined
// authorizer in package core.
type Authorizer interface {
	// Authorize returns the privilege justifying the command, or ok=false.
	Authorize(p *policy.Policy, c Command) (justification model.Privilege, ok bool)
	// Name identifies the authorizer in traces and reports.
	Name() string
}

// Strict is the literal Definition 5 authorizer: cmd(u, a, v, v') is allowed
// iff u →φ r and r →φ a(v,v') for some role r — equivalently, iff the
// privilege vertex a(v,v') is reachable from u (every path from a user
// passes through a role first, since users' only out-edges are UA edges).
type Strict struct{}

// Authorize implements Authorizer.
func (Strict) Authorize(p *policy.Policy, c Command) (model.Privilege, bool) {
	priv, err := c.Privilege()
	if err != nil {
		return nil, false
	}
	if p.Reaches(model.User(c.Actor), priv) {
		return priv, true
	}
	return nil, false
}

// Name implements Authorizer.
func (Strict) Name() string { return "strict" }

// Outcome describes what Definition 5 did with one command. Its value is a
// stable byte — 1 applied through 4 ill-formed — that the wire plane's submit
// answers and the log's records carry as is, so the constants never change.
type Outcome uint8

const (
	// Applied: the command was authorized and the edge was added/removed.
	Applied Outcome = iota + 1
	// AppliedNoChange: authorized, but the edge was already present (¤) or
	// already absent (♦); φ ∪ (v,v') / φ \ (v,v') left the policy unchanged.
	AppliedNoChange
	// Denied: the command was not authorized; it was consumed without
	// changing the policy (third case of Definition 5).
	Denied
	// IllFormed: the command is not well-sorted; consumed without effect.
	IllFormed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Applied:
		return "applied"
	case AppliedNoChange:
		return "applied (no change)"
	case Denied:
		return "denied"
	case IllFormed:
		return "ill-formed"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// WireName is the stable machine name of the outcome, shared by the HTTP API
// and the JSON of a record (distinct from the human-facing String). Changing
// these strings breaks replay of log format v1, which stored them.
func (o Outcome) WireName() string {
	switch o {
	case Applied:
		return "applied"
	case AppliedNoChange:
		return "nochange"
	case Denied:
		return "denied"
	default:
		return "illformed"
	}
}

// ParseOutcome inverts WireName; "" is the zero Outcome of a record that
// carries no command.
func ParseOutcome(name string) (Outcome, error) {
	if name == "" {
		return 0, nil
	}
	for o := Applied; o <= IllFormed; o++ {
		if o.WireName() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown outcome %q", name)
}

// StepResult records one ⇒ transition.
type StepResult struct {
	Cmd           Command
	Outcome       Outcome
	Justification model.Privilege // the authorizing privilege when applied
}

// Apply mutates p with the command's edge change without any authorization
// check: φ ∪ (v,v') for ¤, φ \ (v,v') for ♦. It reports whether the policy
// changed. Ill-sorted edges return an error and leave p untouched.
func Apply(p *policy.Policy, c Command) (changed bool, err error) {
	switch c.Op {
	case model.OpGrant:
		return p.AddEdge(c.From, c.To)
	case model.OpRevoke:
		return p.RemoveEdge(c.From, c.To)
	default:
		return false, fmt.Errorf("command %s: invalid op", c)
	}
}

// Step executes one ⇒ transition (Definition 5) in place on p, using auth to
// decide the side condition. The transition is total: every command is
// consumed; unauthorized and ill-formed commands leave the policy unchanged.
func Step(p *policy.Policy, c Command, auth Authorizer) StepResult {
	if err := c.Validate(); err != nil {
		return StepResult{Cmd: c, Outcome: IllFormed}
	}
	just, ok := auth.Authorize(p, c)
	if !ok {
		return StepResult{Cmd: c, Outcome: Denied}
	}
	changed, err := Apply(p, c)
	if err != nil {
		// Unreachable after Validate, but keep the transition total.
		return StepResult{Cmd: c, Outcome: IllFormed}
	}
	if !changed {
		return StepResult{Cmd: c, Outcome: AppliedNoChange, Justification: just}
	}
	return StepResult{Cmd: c, Outcome: Applied, Justification: just}
}

// Run executes the whole queue on p (the run ⇒* of the paper), mutating p in
// place, and returns the per-command trace. Callers needing the original
// policy should Clone first.
func Run(p *policy.Policy, q Queue, auth Authorizer) []StepResult {
	trace := make([]StepResult, 0, len(q))
	for _, c := range q {
		trace = append(trace, Step(p, c, auth))
	}
	return trace
}

// RunOn clones p, executes the queue on the clone, and returns the final
// policy with the trace. The input policy is never mutated.
func RunOn(p *policy.Policy, q Queue, auth Authorizer) (*policy.Policy, []StepResult) {
	c := p.Clone()
	trace := Run(c, q, auth)
	return c, trace
}
