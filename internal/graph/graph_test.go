package graph

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestAddVertexInterning(t *testing.T) {
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	if a == b {
		t.Fatal("distinct keys shared an ID")
	}
	if g.AddVertex("a") != a {
		t.Fatal("re-adding a key changed its ID")
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
	if g.Lookup("a") != a || g.Lookup("missing") != NoVertex {
		t.Fatal("Lookup wrong")
	}
	if g.Key(a) != "a" || g.Key(999) != "" || g.Key(-1) != "" {
		t.Fatal("Key wrong")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New()
	if !g.AddEdge("a", "b") {
		t.Fatal("new edge reported as duplicate")
	}
	if g.AddEdge("a", "b") {
		t.Fatal("duplicate edge reported as new")
	}
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") {
		t.Fatal("HasEdge wrong")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.RemoveEdge("a", "b") {
		t.Fatal("remove existing edge failed")
	}
	if g.RemoveEdge("a", "b") {
		t.Fatal("remove missing edge succeeded")
	}
	if g.RemoveEdge("zzz", "b") {
		t.Fatal("remove edge with unknown vertex succeeded")
	}
	if g.HasEdge("a", "b") || g.NumEdges() != 0 {
		t.Fatal("edge not removed")
	}
	// Vertices persist after edge removal.
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
}

func TestReachesReflexiveTransitive(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	g.AddEdge("x", "y")

	cases := []struct {
		from, to string
		want     bool
	}{
		{"a", "a", true}, // reflexive (DESIGN.md D1)
		{"a", "b", true},
		{"a", "d", true},
		{"d", "a", false},
		{"a", "y", false},
		{"x", "y", true},
		{"nosuch", "nosuch", true}, // unknown vertex reaches itself
		{"nosuch", "a", false},
	}
	for _, c := range cases {
		if got := g.Reaches(c.from, c.to); got != c.want {
			t.Errorf("Reaches(%s,%s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestReachesOnCycle(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	g.AddEdge("c", "d")
	for _, pair := range [][2]string{{"a", "c"}, {"c", "b"}, {"b", "a"}, {"a", "d"}} {
		if !g.Reaches(pair[0], pair[1]) {
			t.Errorf("Reaches(%s,%s) = false on cycle", pair[0], pair[1])
		}
	}
	if g.Reaches("d", "a") {
		t.Error("Reaches(d,a) = true, want false")
	}
}

func TestPath(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "c")
	p := g.Path("a", "c")
	if len(p) < 2 || p[0] != "a" || p[len(p)-1] != "c" {
		t.Fatalf("Path(a,c) = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("Path returned non-edge %s->%s", p[i], p[i+1])
		}
	}
	if got := g.Path("a", "a"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("reflexive Path = %v", got)
	}
	if g.Path("c", "a") != nil {
		t.Fatal("Path(c,a) should be nil")
	}
	if g.Path("a", "zz") != nil {
		t.Fatal("Path to unknown vertex should be nil")
	}
}

func TestReachableFrom(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddVertex("d")
	r := g.ReachableFrom(g.Lookup("a"))
	want := map[string]bool{"a": true, "b": true, "c": true, "d": false}
	for k, w := range want {
		if r[g.Lookup(k)] != w {
			t.Errorf("ReachableFrom(a)[%s] = %v, want %v", k, r[g.Lookup(k)], w)
		}
	}
	if got := g.ReachableFrom(-5); len(got) != g.NumVertices() {
		t.Error("ReachableFrom with invalid ID should return empty set of full length")
	}
}

func TestClosureMatchesDFSRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := New()
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			g.AddVertex("v" + strconv.Itoa(i))
		}
		e := rng.Intn(3 * n)
		for i := 0; i < e; i++ {
			g.AddEdgeID(rng.Intn(n), rng.Intn(n))
		}
		c := NewClosure(g)
		for f := 0; f < n; f++ {
			for to := 0; to < n; to++ {
				if got, want := c.Reaches(f, to), g.ReachesID(f, to); got != want {
					t.Fatalf("trial %d: closure.Reaches(%d,%d) = %v, DFS = %v", trial, f, to, got, want)
				}
			}
		}
	}
}

func TestClosureStalePanics(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	c := NewClosure(g)
	g.AddEdge("b", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("stale closure query did not panic")
		}
	}()
	c.Reaches(0, 1)
}

func TestSCC(t *testing.T) {
	g := New()
	// Two cycles joined by a bridge, plus an isolated vertex.
	g.AddEdge("a", "b")
	g.AddEdge("b", "a")
	g.AddEdge("b", "c")
	g.AddEdge("c", "d")
	g.AddEdge("d", "c")
	g.AddVertex("e")
	comp, components := g.SCC()
	if len(components) != 3 {
		t.Fatalf("got %d components, want 3", len(components))
	}
	if comp[g.Lookup("a")] != comp[g.Lookup("b")] {
		t.Error("a and b should share a component")
	}
	if comp[g.Lookup("c")] != comp[g.Lookup("d")] {
		t.Error("c and d should share a component")
	}
	if comp[g.Lookup("a")] == comp[g.Lookup("c")] {
		t.Error("a and c should be in different components")
	}
	// Reverse topological order: each edge goes from later to earlier index.
	if comp[g.Lookup("a")] <= comp[g.Lookup("c")] {
		t.Error("condensation order violated: source SCC must come later")
	}
}

func TestLongestChain(t *testing.T) {
	g := New()
	// Chain of 4 edges plus a short branch.
	g.AddEdge("r0", "r1")
	g.AddEdge("r1", "r2")
	g.AddEdge("r2", "r3")
	g.AddEdge("r3", "r4")
	g.AddEdge("r0", "r4")
	if got := g.LongestChain(); got != 4 {
		t.Fatalf("LongestChain = %d, want 4", got)
	}
	// A cycle collapses into one condensation vertex.
	c := New()
	c.AddEdge("a", "b")
	c.AddEdge("b", "a")
	c.AddEdge("b", "c")
	if got := c.LongestChain(); got != 1 {
		t.Fatalf("LongestChain with cycle = %d, want 1", got)
	}
	if got := New().LongestChain(); got != 0 {
		t.Fatalf("LongestChain empty = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	c := g.Clone()
	c.AddEdge("b", "c")
	if g.Reaches("a", "c") {
		t.Fatal("mutation of clone leaked into original")
	}
	if !c.Reaches("a", "c") {
		t.Fatal("clone missing new edge")
	}
	c.RemoveEdge("a", "b")
	if !g.HasEdge("a", "b") {
		t.Fatal("removal on clone affected original")
	}
}

// TestCloneSharedBacking pins the flat-backing Clone: the per-vertex
// adjacency slices are capacity-clipped segments of two shared arrays, so
// growing one vertex's list on the clone must not clobber a neighbouring
// vertex's segment, and clone mutations must never leak into the original.
func TestCloneSharedBacking(t *testing.T) {
	g := New()
	g.AddEdge("a", "x")
	g.AddEdge("b", "y")
	g.AddEdge("b", "z")
	g.AddEdge("c", "x")
	c := g.Clone()
	// Extending a's successor list lands in freshly allocated storage, not
	// in b's segment of the shared backing array.
	c.AddEdge("a", "w")
	for _, edge := range [][2]string{{"b", "y"}, {"b", "z"}, {"c", "x"}} {
		if !c.HasEdge(edge[0], edge[1]) || !reachesList(c, edge[0], edge[1]) {
			t.Fatalf("clone lost edge %s->%s after growing a sibling list", edge[0], edge[1])
		}
	}
	if reachesList(g, "a", "w") {
		t.Fatal("clone append leaked into original's adjacency")
	}
	// Same check for predecessor lists, exercised via removal + re-add.
	c.RemoveEdge("b", "y")
	if !c.HasEdge("b", "z") || reachesList(c, "b", "y") {
		t.Fatal("swap-delete on clone corrupted the successor segment")
	}
	if !g.HasEdge("b", "y") {
		t.Fatal("clone removal leaked into original")
	}
}

// reachesList verifies an edge through the adjacency list itself (not the
// edge set), catching backing-array corruption that HasEdge would miss.
func reachesList(g *Digraph, from, to string) bool {
	f, t := g.Lookup(from), g.Lookup(to)
	if f == NoVertex || t == NoVertex {
		return false
	}
	for _, w := range g.Successors(f) {
		if w == t {
			return true
		}
	}
	return false
}

func TestEdgesDeterministic(t *testing.T) {
	g := New()
	g.AddEdge("c", "a")
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	e1 := g.Edges()
	e2 := g.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges order not deterministic")
		}
	}
}

func TestDOT(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	dot := g.DOT("test", map[string]string{"a": "Alice"}, map[string]string{"a\x00b": "style=dashed"})
	for _, want := range []string{"digraph \"test\"", "Alice", "style=dashed", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestGenerationAdvancesOnMutation(t *testing.T) {
	g := New()
	g0 := g.Generation()
	g.AddVertex("a")
	if g.Generation() == g0 {
		t.Fatal("AddVertex did not advance generation")
	}
	g1 := g.Generation()
	g.AddEdge("a", "b")
	if g.Generation() == g1 {
		t.Fatal("AddEdge did not advance generation")
	}
	g2 := g.Generation()
	g.RemoveEdge("a", "b")
	if g.Generation() == g2 {
		t.Fatal("RemoveEdge did not advance generation")
	}
}

func TestLargeChainIterativeTarjan(t *testing.T) {
	// A 50k-vertex chain would overflow the stack with recursive Tarjan.
	g := New()
	n := 50000
	prev := g.AddVertex("v0")
	for i := 1; i < n; i++ {
		cur := g.AddVertex("v" + strconv.Itoa(i))
		g.AddEdgeID(prev, cur)
		prev = cur
	}
	_, components := g.SCC()
	if len(components) != n {
		t.Fatalf("components = %d, want %d", len(components), n)
	}
	if got := g.LongestChain(); got != n-1 {
		t.Fatalf("LongestChain = %d, want %d", got, n-1)
	}
}
