package parser

import (
	"fmt"
	"sort"
	"strings"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Print renders a policy (and optional command queue) in canonical RPL:
// declarations first, then UA, RH and PA edges in deterministic order, then
// `do` statements. Parse(Print(p)) reproduces the policy exactly.
func Print(p *policy.Policy, queue command.Queue) string {
	var b strings.Builder
	users, roles := p.Users(), p.Roles()
	if len(users) > 0 {
		fmt.Fprintf(&b, "users %s\n", strings.Join(quoteAll(users), ", "))
	}
	if len(roles) > 0 {
		fmt.Fprintf(&b, "roles %s\n", strings.Join(quoteAll(roles), ", "))
	}
	if len(users) > 0 || len(roles) > 0 {
		b.WriteByte('\n')
	}
	for _, e := range p.EdgesOf(policy.EdgeUA) {
		fmt.Fprintf(&b, "assign %s %s\n", quoteName(e.From.String()), quoteName(e.To.String()))
	}
	for _, e := range p.EdgesOf(policy.EdgeRH) {
		fmt.Fprintf(&b, "inherit %s %s\n", quoteName(e.From.String()), quoteName(e.To.String()))
	}
	for _, e := range p.EdgesOf(policy.EdgePA) {
		fmt.Fprintf(&b, "grant %s %s\n", quoteName(e.From.String()), FormatPrivilege(e.To.(model.Privilege)))
	}
	for _, c := range queue {
		fmt.Fprintf(&b, "do %s %s %s %s\n",
			quoteName(c.Actor), c.Op, quoteName(c.From.String()), formatVertex(c.To))
	}
	return b.String()
}

// FormatPrivilege renders a privilege in RPL concrete syntax.
func FormatPrivilege(p model.Privilege) string {
	switch t := p.(type) {
	case model.UserPrivilege:
		return fmt.Sprintf("(%s, %s)", quoteName(t.Action), quoteName(t.Object))
	case model.AdminPrivilege:
		return fmt.Sprintf("%s(%s, %s)", t.Op, quoteName(t.Src.Name), formatVertex(t.Dst))
	default:
		return fmt.Sprintf("<%v>", p)
	}
}

func formatVertex(v model.Vertex) string {
	switch t := v.(type) {
	case model.Entity:
		return quoteName(t.Name)
	case model.Privilege:
		return FormatPrivilege(t)
	default:
		return fmt.Sprintf("<%v>", v)
	}
}

// quoteName quotes a name when it is not a plain identifier or collides with
// a keyword.
func quoteName(n string) string {
	if n == "" {
		return `""`
	}
	plain := true
	for i := 0; i < len(n); i++ {
		if !isIdentByte(n[i]) {
			// Quote anything beyond plain ASCII identifier bytes — including
			// multi-byte runes and stray high bytes — so printing and lexing
			// stay inverse regardless of encoding validity.
			plain = false
			break
		}
	}
	switch n {
	case "users", "roles", "assign", "inherit", "grant", "revoke", "do":
		plain = false
	}
	if plain {
		return n
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(n); i++ {
		if n[i] == '"' || n[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(n[i])
	}
	b.WriteByte('"')
	return b.String()
}

func quoteAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = quoteName(n)
	}
	sort.Strings(out)
	return out
}
