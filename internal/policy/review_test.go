package policy

import (
	"reflect"
	"slices"
	"testing"

	"adminrefine/internal/model"
)

func TestAssignedVsAuthorizedUsers(t *testing.T) {
	p := Figure2()
	// nurse: diana is directly assigned; nobody else.
	if got := p.AssignedUsers(RoleNurse); !reflect.DeepEqual(got, []string{UserDiana}) {
		t.Errorf("AssignedUsers(nurse) = %v", got)
	}
	// dbusr1 has no direct members, but diana reaches it via the hierarchy.
	if got := p.AssignedUsers(RoleDBUsr1); len(got) != 0 {
		t.Errorf("AssignedUsers(dbusr1) = %v", got)
	}
	if got := p.AuthorizedUsers(RoleDBUsr1); !reflect.DeepEqual(got, []string{UserDiana}) {
		t.Errorf("AuthorizedUsers(dbusr1) = %v", got)
	}
	// HR: jane directly; alice via SO → HR.
	if got := p.AuthorizedUsers(RoleHR); !reflect.DeepEqual(got, []string{UserAlice, UserJane}) {
		t.Errorf("AuthorizedUsers(HR) = %v", got)
	}
}

// directly lists the targets of kind edges from v, sorted by key.
func directly(p *Policy, kind EdgeKind, v model.Vertex) []string {
	var out []string
	for _, e := range p.EdgesOf(kind) {
		if e.From.Key() == v.Key() {
			out = append(out, e.To.Key())
		}
	}
	return out
}

func TestAssignedRoles(t *testing.T) {
	p := Figure2()
	nurse, staff := model.Role(RoleNurse).Key(), model.Role(RoleStaff).Key()
	if got := directly(p, EdgeUA, model.User(UserDiana)); !reflect.DeepEqual(got, []string{nurse, staff}) {
		t.Errorf("diana's UA edges reach %v", got)
	}
	if got := directly(p, EdgeUA, model.User(UserBob)); len(got) != 0 {
		t.Errorf("bob's UA edges reach %v", got)
	}
	// Direct vs activatable: diana activates 5 roles but is assigned to 2.
	if len(p.RolesActivatableBy(UserDiana)) <= 2 {
		t.Error("activatable set should strictly contain assigned set here")
	}
}

func TestPermReview(t *testing.T) {
	p := Figure2()
	if got := p.UsersWithPerm(PermWriteT3); !reflect.DeepEqual(got, []string{UserDiana}) {
		t.Errorf("UsersWithPerm(write t3) = %v", got)
	}
	if got := p.UsersWithPerm(PermReadT1); len(got) != 1 {
		t.Errorf("UsersWithPerm(read t1) = %v", got)
	}
}

func TestDirectPrivileges(t *testing.T) {
	p := Figure2()
	if hr := directly(p, EdgePA, model.Role(RoleHR)); len(hr) != 3 {
		t.Fatalf("HR's PA edges reach %v", hr)
	}
	// nurse holds only its print privilege directly; reads come from dbusr1.
	if nurse := directly(p, EdgePA, model.Role(RoleNurse)); len(nurse) != 1 || nurse[0] != PermPrntBlack.Key() {
		t.Errorf("nurse's PA edges reach %v", nurse)
	}
	if got := directly(p, EdgePA, model.Role("ghost")); len(got) != 0 {
		t.Errorf("ghost's PA edges reach %v", got)
	}
}

func TestSeniorsJuniors(t *testing.T) {
	p := Figure2()
	for _, junior := range []string{RoleDBUsr1, RoleDBUsr2, RoleNurse, RolePrntUsr} {
		if !slices.Contains(p.Seniors(junior), RoleStaff) {
			t.Errorf("Seniors(%s) = %v, misses staff", junior, p.Seniors(junior))
		}
	}
	if got := p.Seniors(RoleDBUsr1); !reflect.DeepEqual(got, []string{RoleDBUsr2, RoleNurse, RoleStaff}) {
		t.Errorf("Seniors(dbusr1) = %v", got)
	}
	if got := p.Seniors(RoleSO); len(got) != 0 {
		t.Errorf("Seniors(SO) = %v", got)
	}
	if got := p.Seniors("ghost"); got != nil {
		t.Errorf("Seniors(ghost) = %v", got)
	}
	// UA/PA edges must not leak into the role graph: diana is not a senior.
	for _, s := range p.Seniors(RoleNurse) {
		if s == UserDiana {
			t.Error("user appeared among seniors")
		}
	}
}
