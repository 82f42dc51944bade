package policy

import (
	"testing"

	"adminrefine/internal/model"
)

// trickyPolicy exercises every vertex shape and every character the key
// syntax escapes, with one name used as both a user and a role.
func trickyPolicy(t *testing.T) *Policy {
	t.Helper()
	p := New()
	p.Assign("a,b", "x:y")
	p.Assign("x:y", "x:y")
	p.AddInherit("x:y", "(p)<&>")
	p.DeclareUser("idle")
	p.DeclareRole("%25")
	nested := model.Grant(model.Role("x:y"), model.Revoke(model.User("a,b"), model.Role("%")))
	for _, pr := range []model.Privilege{model.Perm("read", "t,1"), nested, model.Revoke(model.Role("(p)<&>"), nested)} {
		if _, err := p.GrantPrivilege("(p)<&>", pr); err != nil {
			t.Fatal(err)
		}
	}
	p.RevokePrivilege("(p)<&>", nested) // leaves an orphan privilege vertex
	return p
}

// sameIDs reports whether every key of p names the same vertex id in q.
func sameIDs(p, q *Policy) bool {
	if p.g.NumVertices() != q.g.NumVertices() {
		return false
	}
	for id := 0; id < p.g.NumVertices(); id++ {
		if q.g.Key(id) != p.g.Key(id) || q.verts[id].Key() != p.g.Key(id) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, p := range map[string]*Policy{"figure2": Figure2(), "tricky": trickyPolicy(t), "empty": New()} {
		t.Run(name, func(t *testing.T) {
			data := p.AppendBinary(nil)
			q, err := DecodeBinary(data)
			if err != nil {
				t.Fatal(err)
			}
			if !q.Equal(p) || !p.Equal(q) || !sameIDs(p, q) {
				t.Fatalf("decoded policy differs: equal=%v ids=%v", q.Equal(p), sameIDs(p, q))
			}
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			pj, _ := p.MarshalJSON()
			qj, _ := q.MarshalJSON()
			if string(pj) != string(qj) {
				t.Fatalf("JSON form changed across the binary form:\n%s\n%s", pj, qj)
			}
			if again := q.AppendBinary(nil); string(again) != string(data) {
				t.Fatal("re-encoding a decoded policy changed its bytes")
			}
			// The decoded policy is a live one: it keeps taking mutations.
			q.Assign("late", "x:y")
			if !q.HasEdge(model.User("late"), model.Role("x:y")) || q.NumEdges() != p.NumEdges()+1 {
				t.Fatal("decoded policy did not take a new edge")
			}
		})
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	good := trickyPolicy(t).AppendBinary(nil)
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeBinary(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(good))
		}
	}
	if _, err := DecodeBinary(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	enc := func(keys []string, succ [][]int) []byte {
		var b []byte
		edges := 0
		for _, s := range succ {
			edges += len(s)
		}
		b = append(b, byte(len(keys)), byte(edges))
		for _, k := range keys {
			b = append(append(b, byte(len(k))), k...)
		}
		for _, s := range succ {
			b = append(b, byte(len(s)))
			for _, t := range s {
				b = append(b, byte(t))
			}
		}
		return b
	}
	for name, data := range map[string][]byte{
		"role -> user edge":      enc([]string{"r:r", "u:u"}, [][]int{{1}, nil}),
		"user -> privilege edge": enc([]string{"u:u", "p:(a,o)"}, [][]int{{1}, nil}),
		"repeated edge":          enc([]string{"u:u", "r:r"}, [][]int{{1, 1}, nil}),
		"repeated vertex":        enc([]string{"u:u", "u:u"}, [][]int{nil, nil}),
		"target out of range":    enc([]string{"u:u", "r:r"}, [][]int{{2}, nil}),
		"ungrammatical":          enc([]string{"r:r", "+(u:u,p:(a,o))"}, [][]int{{1}, nil}),
		"non-canonical key":      enc([]string{"u:%41"}, [][]int{nil}),
		"huge vertex count":      {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
	} {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := DecodeBinary(enc([]string{"u:u", "r:r"}, [][]int{{1}, nil})); err != nil {
		t.Fatalf("the well-formed twin of the cases above is rejected: %v", err)
	}
}
