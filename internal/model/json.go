package model

import (
	"encoding/json"
	"fmt"
)

// PrivWire is the JSON wire form of a privilege term as plain data, so a
// document that embeds privileges (a policy, a snapshot) decodes them in its
// own single parse. Exactly one of Perm and Admin is set.
type PrivWire struct {
	Perm  *permWire  `json:"perm,omitempty"`
	Admin *adminWire `json:"admin,omitempty"`
}

type permWire struct {
	Action string `json:"action"`
	Object string `json:"object"`
}

type adminWire struct {
	Op      string    `json:"op"` // "grant" or "revoke"
	SrcKind string    `json:"srcKind"`
	Src     string    `json:"src"`
	DstRole string    `json:"dstRole,omitempty"`
	DstPriv *PrivWire `json:"dstPriv,omitempty"`
}

// WireOf returns the wire form of a privilege term.
func WireOf(p Privilege) (*PrivWire, error) {
	switch t := p.(type) {
	case UserPrivilege:
		return &PrivWire{Perm: &permWire{Action: t.Action, Object: t.Object}}, nil
	case AdminPrivilege:
		w := &adminWire{Op: t.Op.String(), SrcKind: t.Src.Kind.String(), Src: t.Src.Name}
		switch d := t.Dst.(type) {
		case Entity:
			w.DstRole = d.Name
		case Privilege:
			inner, err := WireOf(d)
			if err != nil {
				return nil, err
			}
			w.DstPriv = inner
		default:
			return nil, fmt.Errorf("marshal privilege: unsupported destination %T", t.Dst)
		}
		return &PrivWire{Admin: w}, nil
	default:
		return nil, fmt.Errorf("marshal privilege: unsupported type %T", p)
	}
}

// Privilege builds the term w describes and validates it against the
// grammar.
func (w *PrivWire) Privilege() (Privilege, error) { return w.term(true) }

// term builds the term w describes. strict validates it against the grammar
// (Privilege); otherwise any term WireOf writes reads back, grammatical or
// not (an entity destination, written by name alone, as a role).
func (w *PrivWire) term(strict bool) (Privilege, error) {
	switch {
	case w == nil:
		return nil, fmt.Errorf("unmarshal privilege: empty term")
	case w.Perm != nil && w.Admin != nil:
		return nil, fmt.Errorf("unmarshal privilege: both perm and admin set")
	case w.Perm != nil:
		q := Perm(w.Perm.Action, w.Perm.Object)
		if err := q.Validate(); strict && err != nil {
			return nil, err
		}
		return q, nil
	case w.Admin != nil:
		a := w.Admin
		var op Op
		switch a.Op {
		case "grant":
			op = OpGrant
		case "revoke":
			op = OpRevoke
		default:
			return nil, fmt.Errorf("unmarshal privilege: unknown op %q", a.Op)
		}
		var kind Kind
		switch a.SrcKind {
		case "user":
			kind = KindUser
		case "role":
			kind = KindRole
		default:
			return nil, fmt.Errorf("unmarshal privilege: unknown source kind %q", a.SrcKind)
		}
		src := Entity{Kind: kind, Name: a.Src}
		var dst Vertex
		switch {
		case a.DstRole != "" && a.DstPriv != nil:
			return nil, fmt.Errorf("unmarshal privilege: both dstRole and dstPriv set")
		case a.DstPriv != nil:
			inner, err := a.DstPriv.term(strict)
			if err != nil {
				return nil, err
			}
			dst = inner
		case a.DstRole != "" || !strict:
			dst = Role(a.DstRole)
		default:
			return nil, fmt.Errorf("unmarshal privilege: no destination")
		}
		if !strict {
			return AdminPrivilege{Op: op, Src: src, Dst: dst}, nil
		}
		return NewAdmin(op, src, dst)
	default:
		return nil, fmt.Errorf("unmarshal privilege: neither perm nor admin set")
	}
}

// vertexWire is the JSON wire form of a Vertex: exactly one of Entity and
// Priv is set.
type vertexWire struct {
	Kind string    `json:"kind,omitempty"` // "user" or "role"
	Name string    `json:"name,omitempty"`
	Priv *PrivWire `json:"priv,omitempty"`
}

// MarshalVertex encodes an entity or privilege vertex as JSON.
func MarshalVertex(v Vertex) ([]byte, error) {
	switch t := v.(type) {
	case Entity:
		return json.Marshal(vertexWire{Kind: t.Kind.String(), Name: t.Name})
	case Privilege:
		w, err := WireOf(t)
		if err != nil {
			return nil, err
		}
		return json.Marshal(vertexWire{Priv: w})
	default:
		return nil, fmt.Errorf("marshal vertex: unsupported type %T", v)
	}
}

// UnmarshalVertex decodes an entity or privilege vertex from JSON.
func UnmarshalVertex(data []byte) (Vertex, error) { return unmarshalVertex(data, true) }

// UnmarshalAnyVertex is UnmarshalVertex without the grammar of Definition 2:
// every vertex MarshalVertex writes reads back — the vertex an ill-formed
// command was refused for, as its audit record keeps it.
func UnmarshalAnyVertex(data []byte) (Vertex, error) { return unmarshalVertex(data, false) }

func unmarshalVertex(data []byte, strict bool) (Vertex, error) {
	var w vertexWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	switch {
	case w.Priv != nil && w.Name != "":
		return nil, fmt.Errorf("unmarshal vertex: both entity and privilege set")
	case w.Priv != nil:
		return w.Priv.term(strict)
	case w.Name != "" || (!strict && w.Kind != ""):
		switch w.Kind {
		case "user":
			return User(w.Name), nil
		case "role":
			return Role(w.Name), nil
		default:
			return nil, fmt.Errorf("unmarshal vertex: unknown kind %q", w.Kind)
		}
	default:
		return nil, fmt.Errorf("unmarshal vertex: empty")
	}
}
