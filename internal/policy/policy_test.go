package policy

import (
	"encoding/json"
	"strings"
	"testing"

	"adminrefine/internal/model"
)

func TestAssignAndClassify(t *testing.T) {
	p := New()
	if !p.Assign("diana", "nurse") {
		t.Fatal("new UA edge reported duplicate")
	}
	if p.Assign("diana", "nurse") {
		t.Fatal("duplicate UA edge reported new")
	}
	if !p.HasUser("diana") || !p.HasRole("nurse") {
		t.Fatal("Assign did not declare endpoints")
	}
	if !p.HasEdge(model.User("diana"), model.Role("nurse")) {
		t.Fatal("HasEdge false for present UA edge")
	}
	if !p.Deassign("diana", "nurse") {
		t.Fatal("Deassign failed")
	}
	if p.Deassign("diana", "nurse") {
		t.Fatal("Deassign of missing edge succeeded")
	}
	// Vertices survive edge removal (fixed universes).
	if !p.HasUser("diana") {
		t.Fatal("user vanished after deassign")
	}
}

func TestClassifyEdge(t *testing.T) {
	u, r, r2 := model.User("u"), model.Role("r"), model.Role("r2")
	q := model.Perm("read", "t1")
	adm := model.Grant(u, r)

	cases := []struct {
		from, to model.Vertex
		want     EdgeKind
		ok       bool
	}{
		{u, r, EdgeUA, true},
		{r, r2, EdgeRH, true},
		{r, q, EdgePA, true},
		{r, adm, EdgePA, true},
		{u, q, 0, false},   // privileges only assigned to roles
		{u, u, 0, false},   // user -> user
		{r, u, 0, false},   // role -> user
		{q, r, 0, false},   // privilege source
		{adm, r, 0, false}, // privilege source
	}
	for _, c := range cases {
		kind, err := ClassifyEdge(c.from, c.to)
		if c.ok && (err != nil || kind != c.want) {
			t.Errorf("ClassifyEdge(%v,%v) = %v,%v; want %v", c.from, c.to, kind, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ClassifyEdge(%v,%v) accepted", c.from, c.to)
		}
	}
}

func TestGrantPrivilegeRejectsUngrammatical(t *testing.T) {
	p := New()
	bad := model.Grant(model.User("u"), model.Perm("a", "b")) // ¤(u,q) invalid
	if _, err := p.GrantPrivilege("r", bad); err == nil {
		t.Fatal("ungrammatical privilege accepted")
	}
	if _, err := p.AddEdge(model.Role("r"), bad); err == nil {
		t.Fatal("AddEdge accepted ungrammatical privilege")
	}
}

func TestFigure1Example1(t *testing.T) {
	p := Figure1()
	if err := p.Validate(); err != nil {
		t.Fatalf("Figure 1 policy invalid: %v", err)
	}

	// Diana can activate nurse or staff (Example 1).
	if !p.CanActivate(UserDiana, RoleNurse) || !p.CanActivate(UserDiana, RoleStaff) {
		t.Fatal("Diana cannot activate her roles")
	}

	// As nurse: read t1 and t2 (and print), but not write t3.
	nurse := model.Role(RoleNurse)
	perms := permKeySet(p.AuthorizedPerms(nurse))
	for _, want := range []model.UserPrivilege{PermReadT1, PermReadT2, PermPrntBlack, PermPrntColor} {
		if !perms[want.Key()] {
			t.Errorf("nurse missing %v", want)
		}
	}
	if perms[PermWriteT3.Key()] {
		t.Error("nurse can write t3")
	}

	// As staff: everything nurse has, plus write t3 (Example 1: "she can
	// also write the table t3").
	staff := model.Role(RoleStaff)
	sperms := permKeySet(p.AuthorizedPerms(staff))
	for k := range perms {
		if !sperms[k] {
			t.Errorf("staff missing nurse permission %s", k)
		}
	}
	if !sperms[PermWriteT3.Key()] {
		t.Error("staff cannot write t3")
	}

	// staff →φ dbusr2 must hold (needed by Example 5).
	if !p.Reaches(staff, model.Role(RoleDBUsr2)) {
		t.Error("staff does not reach dbusr2")
	}
}

func TestFigure2AdministrativeAssignments(t *testing.T) {
	p := Figure2()
	if err := p.Validate(); err != nil {
		t.Fatalf("Figure 2 policy invalid: %v", err)
	}
	// Jane (HR) holds the appoint/dismiss privileges through her role.
	jane := model.User(UserJane)
	if !p.Reaches(jane, PrivHRAssignBobStaff) {
		t.Error("Jane does not reach ¤(bob,staff)")
	}
	if !p.Reaches(jane, PrivHRRevokeJoeNurse) {
		t.Error("Jane does not reach ♦(joe,nurse)")
	}
	// Alice (SO) inherits HR's privileges and holds the nested privilege.
	alice := model.User(UserAlice)
	if !p.Reaches(alice, PrivHRAssignBobStaff) {
		t.Error("Alice does not inherit HR privileges")
	}
	if !p.Reaches(alice, PrivSOGrantStaffAppoint) {
		t.Error("Alice does not reach ¤(staff,¤(bob,staff))")
	}
	// Diana holds no administrative privileges.
	diana := model.User(UserDiana)
	for _, pr := range p.AuthorizedPrivileges(diana) {
		if _, isAdmin := pr.(model.AdminPrivilege); isAdmin {
			t.Errorf("Diana holds administrative privilege %v", pr)
		}
	}
}

func permKeySet(ps []model.UserPrivilege) map[string]bool {
	m := make(map[string]bool, len(ps))
	for _, p := range ps {
		m[p.Key()] = true
	}
	return m
}

func TestPrivilegeVertices(t *testing.T) {
	p := Figure2()
	vs := p.PrivilegeVertices()
	keys := make(map[string]bool)
	for _, v := range vs {
		keys[v.Key()] = true
	}
	for _, want := range []model.Privilege{
		PermReadT1, PermWriteT3, PrivHRAssignBobStaff, PrivSOGrantStaffAppoint, PrivDB3RevokeInherit,
	} {
		if !keys[want.Key()] {
			t.Errorf("PrivilegeVertices missing %v", want)
		}
	}
	// Nested subterms are NOT separate vertices.
	inner := model.Grant(model.User(UserBob), model.Role(RoleStaff))
	if len(vs) > 0 && !keys[inner.Key()] {
		// inner happens to also be assigned to HR directly, so it IS a vertex
		// here; check with a policy where it is only nested.
		q := New()
		if _, err := q.GrantPrivilege("a", model.Grant(model.Role("b"), model.Grant(model.User("c"), model.Role("d")))); err != nil {
			t.Fatal(err)
		}
		qvs := q.PrivilegeVertices()
		if len(qvs) != 1 {
			t.Errorf("nested subterm interned as separate vertex: %v", qvs)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	p := Figure2()
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Assign(UserBob, RoleStaff)
	if p.Equal(c) {
		t.Fatal("mutation of clone affected equality")
	}
	if p.Reaches(model.User(UserBob), model.Role(RoleStaff)) {
		t.Fatal("clone mutation leaked into original graph")
	}
	c.Deassign(UserBob, RoleStaff)
	if !p.Equal(c) {
		t.Fatal("clone not equal after undo")
	}
}

func TestDiff(t *testing.T) {
	p := Figure1()
	q := p.Clone()
	q.Assign(UserBob, RoleStaff)
	q.RemoveInherit(RoleNurse, RolePrntUsr)
	removed, added := p.Diff(q)
	if len(added) != 1 || added[0].Kind != EdgeUA || added[0].From.String() != UserBob {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0].Kind != EdgeRH || removed[0].From.String() != RoleNurse {
		t.Errorf("removed = %v", removed)
	}
	r2, a2 := p.Diff(p.Clone())
	if len(r2) != 0 || len(a2) != 0 {
		t.Errorf("self diff nonempty: %v %v", r2, a2)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Figure2()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Policy
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if !p.Equal(&q) {
		rem, add := p.Diff(&q)
		t.Fatalf("round-trip changed policy; removed=%v added=%v", rem, add)
	}
	// Deterministic output.
	data2, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("JSON marshalling not deterministic")
	}
}

func TestJSONRejectsBadPolicy(t *testing.T) {
	var q Policy
	bad := `{"pa":[{"from":"r1","priv":{"admin":{"op":"grant","srcKind":"user","src":"u","dstPriv":{"perm":{"action":"a","object":"b"}}}}}]}`
	if err := json.Unmarshal([]byte(bad), &q); err == nil {
		t.Fatal("ungrammatical privilege accepted from JSON")
	}
	if err := json.Unmarshal([]byte(`{"ua": [`), &q); err == nil {
		t.Fatal("syntactically invalid JSON accepted")
	}
}

func TestAuthorizedPermsOnUnknownVertex(t *testing.T) {
	p := Figure1()
	if got := p.AuthorizedPerms(model.User("stranger")); len(got) != 0 {
		t.Errorf("unknown user has perms: %v", got)
	}
	if got := p.RolesActivatableBy("stranger"); len(got) != 0 {
		t.Errorf("unknown user can activate: %v", got)
	}
}

func TestRolesActivatableBy(t *testing.T) {
	p := Figure1()
	roles := p.RolesActivatableBy(UserDiana)
	want := map[string]bool{RoleNurse: true, RoleStaff: true, RoleDBUsr1: true, RoleDBUsr2: true, RolePrntUsr: true}
	if len(roles) != len(want) {
		t.Fatalf("RolesActivatableBy = %v", roles)
	}
	for _, r := range roles {
		if !want[r] {
			t.Errorf("unexpected activatable role %s", r)
		}
	}
}

func TestLongestRoleChain(t *testing.T) {
	p := Figure1()
	// staff -> dbusr2 -> dbusr1 and staff -> nurse -> dbusr1 are the longest
	// chains: length 2.
	if got := p.LongestRoleChain(); got != 2 {
		t.Fatalf("LongestRoleChain = %d, want 2", got)
	}
	// UA/PA edges must not count.
	q := New()
	q.Assign("u", "r")
	if got := q.LongestRoleChain(); got != 0 {
		t.Fatalf("LongestRoleChain with only UA = %d, want 0", got)
	}
}

func TestStats(t *testing.T) {
	s := Figure2().Stats()
	if s.Users != 5 {
		t.Errorf("Users = %d, want 5", s.Users)
	}
	if s.Roles != 8 {
		t.Errorf("Roles = %d, want 8", s.Roles)
	}
	if s.UA != 4 {
		t.Errorf("UA = %d, want 4", s.UA)
	}
	if s.RH != 6 {
		t.Errorf("RH = %d, want 6", s.RH)
	}
	if s.PA != 10 {
		t.Errorf("PA = %d, want 10", s.PA)
	}
	if s.MaxPrivilegeDepth != 2 {
		t.Errorf("MaxPrivilegeDepth = %d, want 2", s.MaxPrivilegeDepth)
	}
	if s.AdminPrivVertices != 5 {
		t.Errorf("AdminPrivVertices = %d, want 5", s.AdminPrivVertices)
	}
	if s.UserPrivVertices != 5 {
		t.Errorf("UserPrivVertices = %d, want 5", s.UserPrivVertices)
	}
}

func TestValidateCatchesCorruptEdges(t *testing.T) {
	// Build a policy and corrupt its graph directly to simulate a bad
	// deserialization path.
	p := New()
	p.Assign("u", "r")
	p.g.AddEdge(model.Role("r").Key(), model.User("u").Key())
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted role->user UA edge")
	}
}

func TestDOTOutput(t *testing.T) {
	p := Figure1()
	dot := p.DOT("fig1")
	for _, want := range []string{"digraph", "diana", "nurse", "style=dashed", "style=bold"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestPathExplanation(t *testing.T) {
	p := Figure2()
	path := p.Path(model.User(UserAlice), PrivHRAssignBobStaff)
	if len(path) < 2 {
		t.Fatalf("no path from alice to HR privilege: %v", path)
	}
	if path[0].String() != UserAlice {
		t.Errorf("path starts at %v", path[0])
	}
	if path[len(path)-1].Key() != PrivHRAssignBobStaff.Key() {
		t.Errorf("path ends at %v", path[len(path)-1])
	}
	if p.Path(model.User(UserDiana), PrivHRAssignBobStaff) != nil {
		t.Error("Diana should have no path to admin privilege")
	}
}

func TestEdgesOrderingAndNumEdges(t *testing.T) {
	p := Figure2()
	edges := p.Edges()
	if len(edges) != p.NumEdges() {
		t.Fatalf("Edges len %d != NumEdges %d", len(edges), p.NumEdges())
	}
	// UA before RH before PA.
	lastKind := EdgeUA
	for _, e := range edges {
		if e.Kind < lastKind {
			t.Fatal("Edges not grouped by kind")
		}
		lastKind = e.Kind
	}
}
