package model

import "testing"

// TestParseKeyInvertsKey: every vertex shape, with every character the key
// syntax escapes, comes back from its key structurally identical.
func TestParseKeyInvertsKey(t *testing.T) {
	names := []string{"bob", "a,b", "x:y", "(p)", "100%", "%28", "%", "", "+(u:a,r:b)", "p:(a,b)", "ü→"}
	var verts []Vertex
	for _, n := range names {
		verts = append(verts, User(n), Role(n), Perm(n, "o"), Perm("a", n),
			Grant(User(n), Role(n)), Revoke(Role(n), Role("r")), Grant(Role(n), Perm(n, n)),
			Revoke(Role("r"), Grant(Role(n), Revoke(User(n), Role(n)))))
	}
	for _, v := range verts {
		k := v.Key()
		got, err := ParseKey(k)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", k, err)
		}
		if got.Key() != k || got.String() != v.String() {
			t.Fatalf("ParseKey(%q) = %v (key %q), want %v", k, got, got.Key(), v)
		}
	}
}

func TestParseKeyRejectsWhatKeyNeverWrites(t *testing.T) {
	for _, k := range []string{
		"", "bob", "x:bob", "?:bob", "u:a:b", "u:a,b", "u:a(b", "u:%41", "u:%2c", "u:%2", "u:%",
		"p:(a)", "p:(a,b", "p:a,b)", "p:(a,b,c)", "p:(a,b))",
		"+(u:a,r:b", "+(u:a,r:b))", "+(u:a)", "+(r:b", "+(,r:b)", "+(p:(a,b),r:b)", "*(u:a,r:b)", "+u:a,r:b)",
	} {
		if v, err := ParseKey(k); err == nil {
			t.Errorf("ParseKey(%q) = %v (key %q), want an error", k, v, v.Key())
		}
	}
	deep := ""
	for i := 0; i <= maxKeyDepth; i++ {
		deep += "+(r:a,"
	}
	if _, err := ParseKey(deep); err == nil {
		t.Error("nesting beyond the depth bound accepted")
	}
}

// FuzzParseKey: never a panic, and an accepted string is its vertex's key.
func FuzzParseKey(f *testing.F) {
	for _, k := range []string{"u:bob", "r:x%3Ay", "p:(read,t%2C1)", "-(r:a,+(u:b,r:c))", "+(r:a,p:(a,o))", "+(u:a", "u:%4"} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, k string) {
		if v, err := ParseKey(k); err == nil && v.Key() != k {
			t.Fatalf("ParseKey(%q) accepted, but its key is %q", k, v.Key())
		}
	})
}

// TestAppendKeyAllocatesNothing: the writer behind every key appends into the
// caller's buffer, and refuses what ParseKey could not read back.
func TestAppendKeyAllocatesNothing(t *testing.T) {
	v := Vertex(Revoke(Role("a,b"), Grant(User("ü→"), Perm("read", "t%1"))))
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendKey(buf[:0], v) }); allocs != 0 {
		t.Fatalf("AppendKey allocates %.1f times", allocs)
	}
	if string(buf) != v.Key() {
		t.Fatalf("AppendKey wrote %q, Key is %q", buf, v.Key())
	}
	for _, bad := range []Vertex{nil, Entity{Name: "x"}, Grant(Role("r"), nil), AdminPrivilege{Op: 7, Src: Role("r"), Dst: Role("s")}} {
		if _, err := AppendKey(nil, bad); err == nil {
			t.Errorf("AppendKey(%#v) accepted a vertex ParseKey cannot rebuild", bad)
		}
	}
}
