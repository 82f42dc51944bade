package core

import (
	"fmt"
	"strings"

	"adminrefine/internal/model"
)

// Rule identifies which clause of Definition 8 (or which closure step) a
// derivation node uses.
type Rule uint8

const (
	// RuleRefl is rule (1): p Ãφ p.
	RuleRefl Rule = iota + 1
	// RuleEdge is rule (2): ¤(v2,v3) Ãφ ¤(v1,v4) with v1 →φ v2, v3 →φ v4.
	RuleEdge
	// RuleNest is rule (3): ¤(v2,p1) Ãφ ¤(v1,p2) with v1 →φ v2, p1 Ãφ p2.
	RuleNest
	// RuleHop is the Example 6 step: the destination vertex reaches a
	// privilege vertex P' of the policy graph, and P' Ãφ the destination
	// term (rule (2) into P† followed transitively by further derivation).
	RuleHop
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleRefl:
		return "rule 1 (reflexivity)"
	case RuleEdge:
		return "rule 2 (edge privilege)"
	case RuleNest:
		return "rule 3 (nested privilege)"
	case RuleHop:
		return "rule 2 via privilege vertex (Example 6 hop)"
	default:
		return fmt.Sprintf("Rule(%d)", uint8(r))
	}
}

// Derivation is a machine-checkable witness that Strong Ãφ Weak holds.
type Derivation struct {
	Rule   Rule
	Strong model.Privilege
	Weak   model.Privilege
	// Via is the privilege vertex P' used by a RuleHop step.
	Via model.Privilege
	// Premise is the sub-derivation for RuleNest (p1 Ãφ p2) and RuleHop
	// (P' Ãφ destination term).
	Premise *Derivation
}

// String renders the derivation tree, innermost premises indented.
func (d *Derivation) String() string {
	var b strings.Builder
	d.write(&b, 0)
	return b.String()
}

func (d *Derivation) write(b *strings.Builder, indent int) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(b, "%s%s  Ã  %s   [%s]", pad, d.Strong, d.Weak, d.Rule)
	if d.Via != nil {
		fmt.Fprintf(b, " via %s", d.Via)
	}
	if d.Premise != nil {
		b.WriteByte('\n')
		d.Premise.write(b, indent+1)
	}
}

// Explain decides Strong Ãφ Weak and, when it holds, produces a derivation
// witness. The derivation mirrors the decision procedure of DESIGN.md D4, so
// checking it only needs reachability queries plus the sub-derivations.
func (d *Decider) Explain(strong, weak model.Privilege) (*Derivation, bool) {
	d.check()
	return d.explain(strong, weak)
}

func (d *Decider) explain(p, q model.Privilege) (*Derivation, bool) {
	if p == nil || q == nil {
		return nil, false
	}
	if p.Key() == q.Key() {
		return &Derivation{Rule: RuleRefl, Strong: p, Weak: q}, true
	}
	if !d.weaker(p, q) {
		return nil, false
	}
	qa := q.(model.AdminPrivilege)
	pa := p.(model.AdminPrivilege)
	switch yt := qa.Dst.(type) {
	case model.Entity:
		return &Derivation{Rule: RuleEdge, Strong: p, Weak: q}, true
	case model.Privilege:
		if bp, ok := pa.Dst.(model.Privilege); ok {
			prem, ok := d.explain(bp, yt)
			if !ok {
				return nil, false
			}
			return &Derivation{Rule: RuleNest, Strong: p, Weak: q, Premise: prem}, true
		}
		// Entity destination hopping through a privilege vertex.
		be := pa.Dst.(model.Entity)
		for _, pv := range d.reach.privVerts {
			if d.reaches(be.Key(), pv.Key()) && d.weaker(pv, yt) {
				prem, ok := d.explain(pv, yt)
				if !ok {
					continue
				}
				return &Derivation{Rule: RuleHop, Strong: p, Weak: q, Via: pv, Premise: prem}, true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// CheckDerivation re-validates a derivation against the policy: every rule
// application is re-checked from its premises. It returns an error naming
// the first invalid node. Use it to audit explanations produced by Explain
// or supplied externally.
func (d *Decider) CheckDerivation(dv *Derivation) error {
	d.check()
	return d.checkDerivation(dv)
}

func (d *Decider) checkDerivation(dv *Derivation) error {
	if dv == nil {
		return fmt.Errorf("nil derivation")
	}
	switch dv.Rule {
	case RuleRefl:
		if !model.SamePrivilege(dv.Strong, dv.Weak) {
			return fmt.Errorf("reflexivity node relates distinct privileges %s and %s", dv.Strong, dv.Weak)
		}
		return nil
	case RuleEdge:
		pa, ok1 := dv.Strong.(model.AdminPrivilege)
		qa, ok2 := dv.Weak.(model.AdminPrivilege)
		if !ok1 || !ok2 || pa.Op != model.OpGrant || qa.Op != model.OpGrant {
			return fmt.Errorf("rule 2 node must relate two grant privileges")
		}
		if !d.reaches(qa.Src.Key(), pa.Src.Key()) {
			return fmt.Errorf("rule 2 premise v1 →φ v2 fails: %s does not reach %s", qa.Src, pa.Src)
		}
		be, ok := pa.Dst.(model.Entity)
		ye, ok2 := qa.Dst.(model.Entity)
		if !ok || !ok2 {
			return fmt.Errorf("rule 2 node requires entity destinations")
		}
		if !d.reaches(be.Key(), ye.Key()) {
			return fmt.Errorf("rule 2 premise v3 →φ v4 fails: %s does not reach %s", be, ye)
		}
		return nil
	case RuleNest:
		pa, ok1 := dv.Strong.(model.AdminPrivilege)
		qa, ok2 := dv.Weak.(model.AdminPrivilege)
		if !ok1 || !ok2 || pa.Op != model.OpGrant || qa.Op != model.OpGrant {
			return fmt.Errorf("rule 3 node must relate two grant privileges")
		}
		if !d.reaches(qa.Src.Key(), pa.Src.Key()) {
			return fmt.Errorf("rule 3 premise v1 →φ v2 fails: %s does not reach %s", qa.Src, pa.Src)
		}
		bp, ok := pa.Dst.(model.Privilege)
		yp, ok2 := qa.Dst.(model.Privilege)
		if !ok || !ok2 {
			return fmt.Errorf("rule 3 node requires privilege destinations")
		}
		if dv.Premise == nil {
			return fmt.Errorf("rule 3 node missing premise")
		}
		if !model.SamePrivilege(dv.Premise.Strong, bp) || !model.SamePrivilege(dv.Premise.Weak, yp) {
			return fmt.Errorf("rule 3 premise relates wrong terms")
		}
		return d.checkDerivation(dv.Premise)
	case RuleHop:
		pa, ok1 := dv.Strong.(model.AdminPrivilege)
		qa, ok2 := dv.Weak.(model.AdminPrivilege)
		if !ok1 || !ok2 || pa.Op != model.OpGrant || qa.Op != model.OpGrant {
			return fmt.Errorf("hop node must relate two grant privileges")
		}
		if !d.reaches(qa.Src.Key(), pa.Src.Key()) {
			return fmt.Errorf("hop premise v1 →φ v2 fails: %s does not reach %s", qa.Src, pa.Src)
		}
		be, ok := pa.Dst.(model.Entity)
		if !ok {
			return fmt.Errorf("hop node requires an entity destination on the strong side")
		}
		if dv.Via == nil {
			return fmt.Errorf("hop node missing via vertex")
		}
		if !d.reaches(be.Key(), dv.Via.Key()) {
			return fmt.Errorf("hop premise v3 →φ P' fails: %s does not reach %s", be, dv.Via)
		}
		yp, ok := qa.Dst.(model.Privilege)
		if !ok {
			return fmt.Errorf("hop node requires a privilege destination on the weak side")
		}
		if dv.Premise == nil {
			return fmt.Errorf("hop node missing premise")
		}
		if !model.SamePrivilege(dv.Premise.Strong, dv.Via) || !model.SamePrivilege(dv.Premise.Weak, yp) {
			return fmt.Errorf("hop premise relates wrong terms")
		}
		return d.checkDerivation(dv.Premise)
	default:
		return fmt.Errorf("unknown rule %v", dv.Rule)
	}
}
