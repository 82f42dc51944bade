package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genPrivilege builds a random grammatical privilege from the rng, used as a
// custom quick generator.
func genPrivilege(rng *rand.Rand, depth int) Privilege {
	names := []string{"a", "b", "c", "r1", "r2", "weird name", "x(y)", "q,q"}
	pick := func() string { return names[rng.Intn(len(names))] }
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return Perm(pick(), pick())
		}
		if rng.Intn(2) == 0 {
			return AdminPrivilege{Op: randOp(rng), Src: User(pick()), Dst: Role(pick())}
		}
		return AdminPrivilege{Op: randOp(rng), Src: Role(pick()), Dst: Role(pick())}
	}
	return AdminPrivilege{Op: randOp(rng), Src: Role(pick()), Dst: genPrivilege(rng, depth-1)}
}

func randOp(rng *rand.Rand) Op {
	if rng.Intn(2) == 0 {
		return OpGrant
	}
	return OpRevoke
}

// privBox wraps a privilege so quick can generate it.
type privBox struct{ P Privilege }

// Generate implements quick.Generator.
func (privBox) Generate(rng *rand.Rand, size int) reflect.Value {
	d := size % 5
	return reflect.ValueOf(privBox{P: genPrivilege(rng, d)})
}

func TestQuickKeyInjective(t *testing.T) {
	// Structurally distinct privileges never share a key; equal keys imply
	// equal rendering and equal depth.
	f := func(a, b privBox) bool {
		ka, kb := a.P.Key(), b.P.Key()
		if ka == kb {
			return a.P.String() == b.P.String() && a.P.Depth() == b.P.Depth()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyDeterministic(t *testing.T) {
	f := func(a privBox) bool { return a.P.Key() == a.P.Key() && a.P.String() == a.P.String() }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	// Every grammatical privilege survives the JSON wire format.
	f := func(a privBox) bool {
		if ValidatePrivilege(a.P) != nil {
			return true // generator can build ungrammatical terms; skip them
		}
		data, err := marshalPrivilege(a.P)
		if err != nil {
			return false
		}
		back, err := unmarshalPrivilege(data)
		if err != nil {
			return false
		}
		return SamePrivilege(a.P, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtermsConsistent(t *testing.T) {
	// len(Subterms) equals Size for admin chains; depths strictly decrease.
	f := func(a privBox) bool {
		subs := Subterms(a.P)
		if len(subs) == 0 {
			return false
		}
		for i := 1; i < len(subs); i++ {
			if subs[i].Depth() >= subs[i-1].Depth() {
				return false
			}
		}
		return subs[0].Key() == a.P.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickVertexRoundTrip(t *testing.T) {
	f := func(a privBox, roleName string) bool {
		if roleName == "" {
			roleName = "r"
		}
		for _, v := range []Vertex{Role(roleName), User(roleName)} {
			data, err := MarshalVertex(v)
			if err != nil {
				return false
			}
			back, err := UnmarshalVertex(data)
			if err != nil || !SameVertex(v, back) {
				return false
			}
		}
		if ValidatePrivilege(a.P) != nil {
			return true
		}
		data, err := MarshalVertex(a.P)
		if err != nil {
			return false
		}
		back, err := UnmarshalVertex(data)
		return err == nil && SameVertex(a.P, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
