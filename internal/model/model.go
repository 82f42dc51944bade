// Package model defines the vocabulary of the administrative RBAC model of
// Dekker & Etalle, "Refinement for Administrative Policies" (SDM/VLDB 2007):
// users, roles, user privileges, and the full privilege grammar P† of
// Definition 2, in which administrative privileges are built from the grant
// connective ¤ and the revoke connective ♦ and may be nested to arbitrary
// depth.
//
// Values of this package are immutable once constructed. Every vertex of a
// policy graph (user, role, or privilege) has a canonical Key that is unique
// per structural identity, so that privileges can be interned, hashed and
// compared cheaply.
package model

import (
	"errors"
	"fmt"
	"strings"
)

// Kind distinguishes the two entity sorts that may appear as graph vertices
// besides privileges: users (U) and roles (R).
type Kind uint8

const (
	// KindUser marks an entity u ∈ U.
	KindUser Kind = iota + 1
	// KindRole marks an entity r ∈ R.
	KindRole
)

// String returns "user" or "role".
func (k Kind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindRole:
		return "role"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k == KindUser || k == KindRole }

// Entity is a named user or role. Entities are value types and compare with
// ==.
type Entity struct {
	Kind Kind
	Name string
}

// User constructs a user entity.
func User(name string) Entity { return Entity{Kind: KindUser, Name: name} }

// Role constructs a role entity.
func Role(name string) Entity { return Entity{Kind: KindRole, Name: name} }

// IsUser reports whether e is a user.
func (e Entity) IsUser() bool { return e.Kind == KindUser }

// IsRole reports whether e is a role.
func (e Entity) IsRole() bool { return e.Kind == KindRole }

// Key returns the canonical unique key of the entity ("u:name" or "r:name",
// with the name escaped so keys never collide).
func (e Entity) Key() string { return string(e.appendKey(make([]byte, 0, 64))) }

func (e Entity) appendKey(dst []byte) []byte {
	sort := byte('?')
	switch e.Kind {
	case KindUser:
		sort = 'u'
	case KindRole:
		sort = 'r'
	}
	return appendEscaped(append(dst, sort, ':'), e.Name)
}

// String returns the bare entity name, as in the paper's figures.
func (e Entity) String() string { return e.Name }

// Validate checks that the entity has a defined kind and a non-empty name.
func (e Entity) Validate() error {
	if !e.Kind.Valid() {
		return fmt.Errorf("entity %q: invalid kind", e.Name)
	}
	if e.Name == "" {
		return fmt.Errorf("entity: empty name")
	}
	return nil
}

// Op is an administrative connective: ¤ (grant, add an edge) or ♦ (revoke,
// remove an edge).
type Op uint8

const (
	// OpGrant is the paper's ¤ connective: the privilege to add an edge.
	OpGrant Op = iota + 1
	// OpRevoke is the paper's ♦ connective: the privilege to remove an edge.
	OpRevoke
)

// String returns the ASCII rendering used by the RPL policy language:
// "grant" for ¤ and "revoke" for ♦.
func (o Op) String() string {
	switch o {
	case OpGrant:
		return "grant"
	case OpRevoke:
		return "revoke"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Symbol returns the paper's one-character connective symbol: "+" for ¤ and
// "-" for ♦ (the concrete syntax stand-ins for ¤ and ♦).
func (o Op) Symbol() string {
	switch o {
	case OpGrant:
		return "+"
	case OpRevoke:
		return "-"
	default:
		return "?"
	}
}

// Valid reports whether o is a defined connective.
func (o Op) Valid() bool { return o == OpGrant || o == OpRevoke }

// Vertex is anything that can appear as a node of the policy graph and as an
// operand of an administrative command: an Entity or a Privilege.
type Vertex interface {
	// Key returns a canonical string unique per structural identity.
	Key() string
	// String returns the human-readable rendering.
	String() string
}

// Privilege is the sealed sum type for the grammar P† of Definition 2:
//
//	p ::= q | ¤(u,r) | ♦(u,r) | ¤(r,r') | ♦(r,r') | ¤(r,p) | ♦(r,p)
//
// where q ranges over user privileges. The two implementations are
// UserPrivilege and AdminPrivilege.
type Privilege interface {
	Vertex
	// Depth returns the number of nested administrative connectives: 0 for
	// a user privilege, 1 for ¤(u,r), 2 for ¤(r,¤(u,r)), and so on.
	Depth() int
	// Size returns the total number of grammar nodes in the privilege term.
	Size() int
	sealedPrivilege()
}

// UserPrivilege is a permission q = (action, object) ∈ P ⊆ A×O, e.g.
// (read, ehrtable).
type UserPrivilege struct {
	Action string
	Object string
}

// Perm constructs the user privilege (action, object).
func Perm(action, object string) UserPrivilege {
	return UserPrivilege{Action: action, Object: object}
}

// Key returns the canonical key "p:(action,object)".
func (q UserPrivilege) Key() string { return string(q.appendKey(make([]byte, 0, 64))) }

func (q UserPrivilege) appendKey(dst []byte) []byte {
	dst = appendEscaped(append(dst, "p:("...), q.Action)
	return append(appendEscaped(append(dst, ','), q.Object), ')')
}

// String renders the privilege as "(action,object)", matching the paper.
func (q UserPrivilege) String() string {
	return "(" + q.Action + "," + q.Object + ")"
}

// Depth of a user privilege is 0.
func (q UserPrivilege) Depth() int { return 0 }

// Size of a user privilege is 1.
func (q UserPrivilege) Size() int { return 1 }

// Validate checks that both components are non-empty.
func (q UserPrivilege) Validate() error {
	if q.Action == "" || q.Object == "" {
		return fmt.Errorf("user privilege %s: empty action or object", q)
	}
	return nil
}

func (UserPrivilege) sealedPrivilege() {}

// AdminPrivilege is an administrative privilege a(src, dst) where a is ¤ or
// ♦, src is a user or role, and dst is a role or a (possibly administrative)
// privilege. The grammar of Definition 2 admits exactly:
//
//	¤(u,r)  ♦(u,r)   — src user, dst role   (user-assignment edges)
//	¤(r,r') ♦(r,r')  — src role, dst role   (role-hierarchy edges)
//	¤(r,p)  ♦(r,p)   — src role, dst priv   (privilege-assignment edges)
//
// Construct values with Grant/Revoke/NewAdmin; Validate enforces the grammar.
type AdminPrivilege struct {
	Op  Op
	Src Entity
	Dst Vertex // Entity (role) or Privilege
}

// Grant constructs ¤(src, dst).
func Grant(src Entity, dst Vertex) AdminPrivilege {
	return AdminPrivilege{Op: OpGrant, Src: src, Dst: dst}
}

// Revoke constructs ♦(src, dst).
func Revoke(src Entity, dst Vertex) AdminPrivilege {
	return AdminPrivilege{Op: OpRevoke, Src: src, Dst: dst}
}

// NewAdmin constructs op(src, dst) and validates it against the grammar.
func NewAdmin(op Op, src Entity, dst Vertex) (AdminPrivilege, error) {
	p := AdminPrivilege{Op: op, Src: src, Dst: dst}
	if err := p.Validate(); err != nil {
		return AdminPrivilege{}, err
	}
	return p, nil
}

// Key returns the canonical key, e.g. "+(u:bob,r:staff)" for ¤(bob,staff)
// or "-(r:a,+(u:b,r:c))" for ♦(a,¤(b,c)).
func (a AdminPrivilege) Key() string {
	b, _ := a.appendKey(make([]byte, 0, 64))
	return string(b)
}

func (a AdminPrivilege) appendKey(dst []byte) ([]byte, error) {
	dst = append(a.Src.appendKey(append(append(dst, a.Op.Symbol()...), '(')), ',')
	dst, err := AppendKey(dst, a.Dst)
	if !a.Op.Valid() || !a.Src.Kind.Valid() {
		err = errNoKey
	}
	return append(dst, ')'), err
}

// String renders the privilege in RPL concrete syntax, e.g.
// "grant(bob, staff)" or "grant(staff, grant(bob, staff))".
func (a AdminPrivilege) String() string {
	var b strings.Builder
	a.writeString(&b)
	return b.String()
}

func (a AdminPrivilege) writeString(b *strings.Builder) {
	b.WriteString(a.Op.String())
	b.WriteByte('(')
	b.WriteString(a.Src.String())
	b.WriteString(", ")
	switch d := a.Dst.(type) {
	case AdminPrivilege:
		d.writeString(b)
	default:
		if a.Dst == nil {
			b.WriteString("<nil>")
		} else {
			b.WriteString(a.Dst.String())
		}
	}
	b.WriteByte(')')
}

// Depth returns 1 + the depth of the destination when it is a privilege,
// and 1 otherwise.
func (a AdminPrivilege) Depth() int {
	if p, ok := a.Dst.(Privilege); ok {
		return 1 + p.Depth()
	}
	return 1
}

// Size returns the number of grammar nodes of the term.
func (a AdminPrivilege) Size() int {
	if p, ok := a.Dst.(Privilege); ok {
		return 1 + p.Size()
	}
	return 1
}

// DstPrivilege returns the destination as a Privilege when the privilege has
// the shape a(r, p); ok is false for the vertex-target shapes a(u,r), a(r,r').
func (a AdminPrivilege) DstPrivilege() (Privilege, bool) {
	p, ok := a.Dst.(Privilege)
	return p, ok
}

// DstEntity returns the destination as an Entity when the privilege has the
// shape a(u,r) or a(r,r'); ok is false for the privilege-target shape a(r,p).
func (a AdminPrivilege) DstEntity() (Entity, bool) {
	e, ok := a.Dst.(Entity)
	return e, ok
}

// Validate enforces the grammar of Definition 2:
//   - the connective must be ¤ or ♦;
//   - the source must be a valid user or role;
//   - the destination must be a role, or a valid privilege;
//   - when the source is a user, the destination must be a role (¤(u,r));
//   - nested privileges must themselves be grammatical.
func (a AdminPrivilege) Validate() error {
	if !a.Op.Valid() {
		return fmt.Errorf("admin privilege: invalid connective")
	}
	if err := a.Src.Validate(); err != nil {
		return fmt.Errorf("admin privilege %s: source: %w", a, err)
	}
	switch d := a.Dst.(type) {
	case Entity:
		if err := d.Validate(); err != nil {
			return fmt.Errorf("admin privilege %s: destination: %w", a, err)
		}
		if !d.IsRole() {
			return fmt.Errorf("admin privilege %s: destination entity must be a role, got %s", a, d.Kind)
		}
	case UserPrivilege:
		if err := d.Validate(); err != nil {
			return fmt.Errorf("admin privilege %s: destination: %w", a, err)
		}
		if a.Src.IsUser() {
			return fmt.Errorf("admin privilege %s: a user source requires a role destination", a)
		}
	case AdminPrivilege:
		if err := d.Validate(); err != nil {
			return fmt.Errorf("admin privilege %s: destination: %w", a, err)
		}
		if a.Src.IsUser() {
			return fmt.Errorf("admin privilege %s: a user source requires a role destination", a)
		}
	case nil:
		return fmt.Errorf("admin privilege: nil destination")
	default:
		return fmt.Errorf("admin privilege %s: unsupported destination type %T", a, a.Dst)
	}
	return nil
}

func (AdminPrivilege) sealedPrivilege() {}

// ValidatePrivilege validates any privilege term against the grammar.
func ValidatePrivilege(p Privilege) error {
	switch t := p.(type) {
	case UserPrivilege:
		return t.Validate()
	case AdminPrivilege:
		return t.Validate()
	case nil:
		return fmt.Errorf("nil privilege")
	default:
		return fmt.Errorf("unsupported privilege type %T", p)
	}
}

// SameVertex reports whether two vertices are structurally identical.
func SameVertex(a, b Vertex) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Key() == b.Key()
}

// SamePrivilege reports whether two privileges are structurally identical
// (rule (1) of Definition 8: p Ãφ p).
func SamePrivilege(p, q Privilege) bool {
	if p == nil || q == nil {
		return p == nil && q == nil
	}
	return p.Key() == q.Key()
}

// Subterms returns all privilege subterms of p, outermost first. A user
// privilege has exactly one subterm (itself); ¤(r,¤(u,r')) has two
// administrative subterms plus none below, and so on.
func Subterms(p Privilege) []Privilege {
	var out []Privilege
	for p != nil {
		out = append(out, p)
		a, ok := p.(AdminPrivilege)
		if !ok {
			break
		}
		inner, ok := a.DstPrivilege()
		if !ok {
			break
		}
		p = inner
	}
	return out
}

// Entities returns every entity mentioned anywhere in the privilege term,
// in first-occurrence order (duplicates removed).
func Entities(p Privilege) []Entity {
	var out []Entity
	seen := make(map[Entity]bool)
	add := func(e Entity) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	var walk func(Privilege)
	walk = func(p Privilege) {
		a, ok := p.(AdminPrivilege)
		if !ok {
			return
		}
		add(a.Src)
		switch d := a.Dst.(type) {
		case Entity:
			add(d)
		case Privilege:
			walk(d)
		}
	}
	walk(p)
	return out
}

// errNoKey marks a vertex ParseKey could not rebuild from what Key renders.
var errNoKey = errors.New("model: vertex has no canonical key")

// AppendKey appends v's canonical key — the bytes Key returns — to dst
// without allocating: the one writer of every key, which Key renders into a
// string. It fails, having appended what Key would render, on a vertex
// ParseKey cannot rebuild: nil (rendered "<nil>"), an entity of no kind, a
// connective other than ¤ and ♦, or a Vertex of another package.
func AppendKey(dst []byte, v Vertex) ([]byte, error) {
	switch t := v.(type) {
	case Entity:
		if !t.Kind.Valid() {
			return t.appendKey(dst), errNoKey
		}
		return t.appendKey(dst), nil
	case UserPrivilege:
		return t.appendKey(dst), nil
	case AdminPrivilege:
		return t.appendKey(dst)
	case nil:
		return append(dst, "<nil>"...), errNoKey
	default:
		return append(dst, v.Key()...), errNoKey
	}
}

// appendEscaped appends a name safe for embedding in canonical keys: the
// characters used by the key syntax — '(', ')', ',', ':' and '%' — are
// percent-encoded.
func appendEscaped(dst []byte, s string) []byte {
	plain := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; keySyntax[c] {
			dst = append(append(dst, s[plain:i]...), '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&15])
			plain = i + 1
		}
	}
	return append(dst, s[plain:]...)
}

// maxKeyDepth bounds the nesting ParseKey accepts, as encoding/json bounds
// the documents the JSON form arrives in.
const maxKeyDepth = 10000

// ParseKey is the inverse of Key: it rebuilds the vertex a canonical key
// names, sharing the key's bytes for every name that needed no escaping. The
// key is the structural encoding of a vertex — sort prefix and name for an
// entity, the term in prefix notation for a privilege — so a table of keys
// persists a policy's vertices with nothing to build on the way back in. It
// accepts exactly the strings Key produces (ParseKey(k).Key() == k) and does
// not check the grammar of Definition 2; callers validate privileges.
func ParseKey(k string) (Vertex, error) {
	var outer []AdminPrivilege // the enclosing connectives, outermost first
	rest := k
	for len(rest) > 1 && (rest[0] == '+' || rest[0] == '-') && rest[1] == '(' {
		src, tail, _ := strings.Cut(rest[2:], ",")
		e, err := parseEntityKey(src)
		if err != nil || len(outer) == maxKeyDepth {
			return nil, fmt.Errorf("model: malformed key %q", k)
		}
		a := AdminPrivilege{Op: OpGrant, Src: e}
		if rest[0] == '-' {
			a.Op = OpRevoke
		}
		outer, rest = append(outer, a), tail
	}
	n := len(rest) - len(outer)
	if n < 0 || strings.Trim(rest[n:], ")") != "" {
		return nil, fmt.Errorf("model: malformed key %q", k)
	}
	var v Vertex
	var err error
	if inner := rest[:n]; strings.HasPrefix(inner, "p:(") && strings.HasSuffix(inner, ")") {
		action, object, ok := strings.Cut(inner[3:n-1], ",")
		var q UserPrivilege
		if q.Action, err = unescape(action); err == nil && ok {
			q.Object, err = unescape(object)
		} else if err == nil {
			err = fmt.Errorf("model: malformed key %q", k)
		}
		v = q
	} else {
		v, err = parseEntityKey(inner)
	}
	for i := len(outer) - 1; i >= 0 && err == nil; i-- {
		outer[i].Dst = v
		v = outer[i]
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

func parseEntityKey(k string) (e Entity, err error) {
	switch {
	case strings.HasPrefix(k, "u:"):
		e.Kind = KindUser
	case strings.HasPrefix(k, "r:"):
		e.Kind = KindRole
	default:
		return e, fmt.Errorf("model: malformed entity key %q", k)
	}
	e.Name, err = unescape(k[2:])
	return e, err
}

// keySyntax marks the bytes appendEscaped encodes.
var keySyntax = [256]bool{'(': true, ')': true, ',': true, ':': true, '%': true}

// unescape inverts escape, refusing what escape never writes: a bare key
// character or a percent sequence other than the five it encodes.
func unescape(s string) (string, error) {
	plain := 0
	for plain < len(s) && !keySyntax[s[plain]] {
		plain++
	}
	if plain == len(s) {
		return s, nil
	}
	b := append(make([]byte, 0, len(s)), s[:plain]...)
	for i := plain; i < len(s); i++ {
		c := s[i]
		if keySyntax[c] {
			j := -1
			if c == '%' && i+3 <= len(s) {
				j = strings.Index("%28%29%2C%3A%25", s[i:i+3])
			}
			if j < 0 {
				return "", fmt.Errorf("model: malformed name %q in key", s)
			}
			c, i = "(),:%"[j/3], i+2
		}
		b = append(b, c)
	}
	return string(b), nil
}
