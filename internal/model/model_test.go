package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEntityKeys(t *testing.T) {
	cases := []struct {
		e    Entity
		key  string
		str  string
		user bool
	}{
		{User("bob"), "u:bob", "bob", true},
		{Role("staff"), "r:staff", "staff", false},
		{User("staff"), "u:staff", "staff", true}, // same name, different sort
	}
	for _, c := range cases {
		if got := c.e.Key(); got != c.key {
			t.Errorf("Key(%v) = %q, want %q", c.e, got, c.key)
		}
		if got := c.e.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.e, got, c.str)
		}
		if c.e.IsUser() != c.user || c.e.IsRole() == c.user {
			t.Errorf("%v: kind predicates inconsistent", c.e)
		}
	}
}

func TestEntityKeyDisambiguatesKinds(t *testing.T) {
	if User("x").Key() == Role("x").Key() {
		t.Fatal("user and role with the same name must have distinct keys")
	}
}

func TestEntityValidate(t *testing.T) {
	if err := User("bob").Validate(); err != nil {
		t.Errorf("valid user rejected: %v", err)
	}
	if err := (Entity{}).Validate(); err == nil {
		t.Error("zero entity accepted")
	}
	if err := (Entity{Kind: KindUser}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
	if err := (Entity{Kind: 99, Name: "x"}).Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestUserPrivilege(t *testing.T) {
	q := Perm("read", "t1")
	if got := q.String(); got != "(read,t1)" {
		t.Errorf("String = %q", got)
	}
	if got := q.Key(); got != "p:(read,t1)" {
		t.Errorf("Key = %q", got)
	}
	if q.Depth() != 0 || q.Size() != 1 {
		t.Errorf("Depth/Size = %d/%d, want 0/1", q.Depth(), q.Size())
	}
	if err := q.Validate(); err != nil {
		t.Errorf("valid user privilege rejected: %v", err)
	}
	if err := Perm("", "t1").Validate(); err == nil {
		t.Error("empty action accepted")
	}
	if err := Perm("read", "").Validate(); err == nil {
		t.Error("empty object accepted")
	}
}

func TestAdminPrivilegeShapes(t *testing.T) {
	bob, staff, nurse := User("bob"), Role("staff"), Role("nurse")
	readT1 := Perm("read", "t1")

	cases := []struct {
		name  string
		p     AdminPrivilege
		valid bool
		depth int
		size  int
	}{
		{"grant(u,r)", Grant(bob, staff), true, 1, 1},
		{"revoke(u,r)", Revoke(bob, staff), true, 1, 1},
		{"grant(r,r')", Grant(staff, nurse), true, 1, 1},
		{"grant(r,q)", Grant(staff, readT1), true, 1, 2},
		{"grant(r,grant(u,r))", Grant(staff, Grant(bob, staff)), true, 2, 2},
		{"grant(r,grant(r,grant(u,r)))", Grant(staff, Grant(nurse, Grant(bob, staff))), true, 3, 3},
		{"grant(u,q) is ungrammatical", Grant(bob, readT1), false, 0, 0},
		{"grant(u,grant(u,r)) is ungrammatical", Grant(bob, Grant(bob, staff)), false, 0, 0},
		{"grant(r,u) is ungrammatical", Grant(staff, bob), false, 0, 0},
		{"nil destination", AdminPrivilege{Op: OpGrant, Src: staff}, false, 0, 0},
		{"invalid op", AdminPrivilege{Op: 0, Src: staff, Dst: nurse}, false, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.valid && err != nil {
				t.Fatalf("unexpectedly invalid: %v", err)
			}
			if !c.valid {
				if err == nil {
					t.Fatal("unexpectedly valid")
				}
				return
			}
			if c.p.Depth() != c.depth {
				t.Errorf("Depth = %d, want %d", c.p.Depth(), c.depth)
			}
			if c.p.Size() != c.size {
				t.Errorf("Size = %d, want %d", c.p.Size(), c.size)
			}
		})
	}
}

func TestNewAdmin(t *testing.T) {
	if _, err := NewAdmin(OpGrant, User("bob"), Role("staff")); err != nil {
		t.Errorf("NewAdmin valid: %v", err)
	}
	if _, err := NewAdmin(OpGrant, User("bob"), Perm("read", "t1")); err == nil {
		t.Error("NewAdmin accepted ungrammatical privilege")
	}
}

func TestAdminPrivilegeStringsMatchPaperExamples(t *testing.T) {
	bob, staff, dbusr2 := User("bob"), Role("staff"), Role("dbusr2")
	// Example 5 privileges.
	p1 := Grant(bob, staff)
	if got := p1.String(); got != "grant(bob, staff)" {
		t.Errorf("p1 = %q", got)
	}
	p2 := Grant(staff, Grant(bob, dbusr2))
	if got := p2.String(); got != "grant(staff, grant(bob, dbusr2))" {
		t.Errorf("p2 = %q", got)
	}
	if got := p2.Key(); got != "+(r:staff,+(u:bob,r:dbusr2))" {
		t.Errorf("p2 key = %q", got)
	}
	p3 := Revoke(Role("dbusr2"), Role("dbusr1"))
	if got := p3.String(); got != "revoke(dbusr2, dbusr1)" {
		t.Errorf("p3 = %q", got)
	}
}

func TestKeyInjectivity(t *testing.T) {
	// Structurally different privileges must have different keys, including
	// tricky names containing the key syntax characters.
	ps := []Privilege{
		Perm("read", "t1"),
		Perm("read", "t2"),
		Perm("re", "ad,t1"), // would collide with (read,t1) without escaping
		Grant(User("bob"), Role("staff")),
		Grant(User("bob"), Role("sta")),
		Grant(User("bobstaff"), Role("x")),
		Revoke(User("bob"), Role("staff")),
		Grant(Role("bob"), Role("staff")),
		Grant(Role("a"), Grant(User("b"), Role("c"))),
		Grant(Role("a"), Revoke(User("b"), Role("c"))),
		Grant(Role("a"), Perm("b", "c")),
		Grant(Role("a,b"), Role("c")),
		Grant(Role("a"), Role("b,c")),
	}
	seen := make(map[string]Privilege)
	for _, p := range ps {
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %v and %v both map to %q", prev, p, k)
		}
		seen[k] = p
	}
}

func TestEscapeRoundTripsViaQuick(t *testing.T) {
	// Escaping must be injective: distinct names yield distinct escapes.
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return string(appendEscaped(nil, a)) != string(appendEscaped(nil, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSamePrivilegeAndSameVertex(t *testing.T) {
	p := Grant(User("bob"), Role("staff"))
	q := Grant(User("bob"), Role("staff"))
	if !SamePrivilege(p, q) {
		t.Error("structurally equal privileges not Same")
	}
	if SamePrivilege(p, Revoke(User("bob"), Role("staff"))) {
		t.Error("grant and revoke conflated")
	}
	if !SamePrivilege(nil, nil) {
		t.Error("nil,nil should be same")
	}
	if SamePrivilege(p, nil) || SamePrivilege(nil, p) {
		t.Error("nil vs non-nil should differ")
	}
	if !SameVertex(User("x"), User("x")) || SameVertex(User("x"), Role("x")) {
		t.Error("SameVertex on entities wrong")
	}
}

func TestSubterms(t *testing.T) {
	bob, staff, nurse := User("bob"), Role("staff"), Role("nurse")
	p := Grant(staff, Grant(nurse, Grant(bob, staff)))
	subs := Subterms(p)
	if len(subs) != 3 {
		t.Fatalf("len(Subterms) = %d, want 3", len(subs))
	}
	if subs[0].Depth() != 3 || subs[1].Depth() != 2 || subs[2].Depth() != 1 {
		t.Errorf("subterm depths = %d,%d,%d", subs[0].Depth(), subs[1].Depth(), subs[2].Depth())
	}
	q := Perm("read", "t1")
	if got := Subterms(q); len(got) != 1 || got[0].Key() != q.Key() {
		t.Errorf("Subterms(user priv) = %v", got)
	}
	inner := Grant(staff, q)
	if got := Subterms(inner); len(got) != 2 {
		t.Errorf("Subterms(grant(r,q)) = %v, want 2 elements", got)
	}
}

func TestEntities(t *testing.T) {
	bob, staff, nurse := User("bob"), Role("staff"), Role("nurse")
	p := Grant(staff, Grant(nurse, Grant(bob, staff)))
	es := Entities(p)
	want := []Entity{staff, nurse, bob}
	if len(es) != len(want) {
		t.Fatalf("Entities = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("Entities[%d] = %v, want %v", i, es[i], want[i])
		}
	}
	if got := Entities(Perm("a", "b")); len(got) != 0 {
		t.Errorf("Entities(user priv) = %v, want empty", got)
	}
}

func TestOpStrings(t *testing.T) {
	if OpGrant.String() != "grant" || OpRevoke.String() != "revoke" {
		t.Error("op names wrong")
	}
	if OpGrant.Symbol() != "+" || OpRevoke.Symbol() != "-" {
		t.Error("op symbols wrong")
	}
	if Op(0).Valid() || Op(9).Valid() {
		t.Error("invalid ops accepted")
	}
	if !strings.Contains(Op(9).String(), "Op(") {
		t.Error("unknown op String should be diagnostic")
	}
}

func TestValidatePrivilege(t *testing.T) {
	if err := ValidatePrivilege(Perm("read", "t1")); err != nil {
		t.Error(err)
	}
	if err := ValidatePrivilege(Grant(User("u"), Role("r"))); err != nil {
		t.Error(err)
	}
	if err := ValidatePrivilege(nil); err == nil {
		t.Error("nil privilege accepted")
	}
	if err := ValidatePrivilege(Grant(User("u"), Perm("a", "b"))); err == nil {
		t.Error("ungrammatical privilege accepted")
	}
}

func TestDeepNestingDepthAndKeyLinearity(t *testing.T) {
	// Build a depth-64 nested privilege and check Depth/Size do not blow up.
	var p Privilege = Grant(User("u"), Role("r0"))
	for i := 1; i <= 63; i++ {
		p = Grant(Role("r"), p)
	}
	if p.Depth() != 64 {
		t.Errorf("Depth = %d, want 64", p.Depth())
	}
	if p.Size() != 64 {
		t.Errorf("Size = %d, want 64", p.Size())
	}
	if err := ValidatePrivilege(p); err != nil {
		t.Errorf("deeply nested privilege invalid: %v", err)
	}
}
