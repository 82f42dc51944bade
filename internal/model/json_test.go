package model

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestUnmarshalPrivilegeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"empty object", `{}`, "neither perm nor admin"},
		{"both set", `{"perm":{"action":"a","object":"b"},"admin":{"op":"grant","srcKind":"user","src":"u","dstRole":"r"}}`, "both perm and admin"},
		{"bad op", `{"admin":{"op":"frob","srcKind":"user","src":"u","dstRole":"r"}}`, "unknown op"},
		{"bad kind", `{"admin":{"op":"grant","srcKind":"thing","src":"u","dstRole":"r"}}`, "unknown source kind"},
		{"no destination", `{"admin":{"op":"grant","srcKind":"user","src":"u"}}`, "no destination"},
		{"two destinations", `{"admin":{"op":"grant","srcKind":"user","src":"u","dstRole":"r","dstPriv":{"perm":{"action":"a","object":"b"}}}}`, "both dstRole and dstPriv"},
		{"empty perm", `{"perm":{"action":"","object":"b"}}`, "empty action or object"},
		{"ungrammatical", `{"admin":{"op":"grant","srcKind":"user","src":"u","dstPriv":{"perm":{"action":"a","object":"b"}}}}`, "role destination"},
		{"nested bad", `{"admin":{"op":"grant","srcKind":"role","src":"r","dstPriv":{}}}`, "neither perm nor admin"},
		{"not json", `{`, "unexpected end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := unmarshalPrivilege([]byte(c.json))
			if err == nil {
				t.Fatalf("accepted %s", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q missing %q", err, c.want)
			}
		})
	}
}

func TestUnmarshalVertexRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty", `{}`},
		{"bad kind", `{"kind":"thing","name":"x"}`},
		{"both", `{"kind":"user","name":"x","priv":{"perm":{"action":"a","object":"b"}}}`},
		{"bad priv", `{"priv":{}}`},
		{"not json", `[`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := UnmarshalVertex([]byte(c.json)); err == nil {
				t.Fatalf("accepted %s", c.json)
			}
		})
	}
	// Valid vertices decode.
	v, err := UnmarshalVertex([]byte(`{"kind":"role","name":"staff"}`))
	if err != nil || !SameVertex(v, Role("staff")) {
		t.Fatalf("role vertex = %v, %v", v, err)
	}
	v, err = UnmarshalVertex([]byte(`{"kind":"user","name":"bob"}`))
	if err != nil || !SameVertex(v, User("bob")) {
		t.Fatalf("user vertex = %v, %v", v, err)
	}
}

func TestMarshalPrivilegeRejectsInvalid(t *testing.T) {
	if _, err := marshalPrivilege(nil); err == nil {
		t.Fatal("nil privilege marshalled")
	}
	bad := AdminPrivilege{Op: OpGrant, Src: User("u")} // nil destination
	if _, err := marshalPrivilege(bad); err == nil {
		t.Fatal("destination-less privilege marshalled")
	}
	if _, err := MarshalVertex(nil); err == nil {
		t.Fatal("nil vertex marshalled")
	}
}

func TestDstAccessors(t *testing.T) {
	flat := Grant(User("u"), Role("r"))
	if e, ok := flat.DstEntity(); !ok || e != Role("r") {
		t.Fatalf("DstEntity = %v, %v", e, ok)
	}
	if _, ok := flat.DstPrivilege(); ok {
		t.Fatal("flat privilege reported nested destination")
	}
	nested := Grant(Role("r"), flat)
	if _, ok := nested.DstEntity(); ok {
		t.Fatal("nested privilege reported entity destination")
	}
	if p, ok := nested.DstPrivilege(); !ok || p.Key() != flat.Key() {
		t.Fatalf("DstPrivilege = %v, %v", p, ok)
	}
}

// marshalPrivilege encodes a privilege term as JSON.
func marshalPrivilege(p Privilege) ([]byte, error) {
	w, err := WireOf(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// unmarshalPrivilege decodes a privilege term from JSON and validates it
// against the grammar.
func unmarshalPrivilege(data []byte) (Privilege, error) {
	var w PrivWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return w.Privilege()
}
