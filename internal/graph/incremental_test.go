package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// equalClosures compares reachability of two closures over n vertices.
func equalClosures(t *testing.T, got, want *Closure, n int, ctx string) {
	t.Helper()
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if g, w := got.Reaches(f, to), want.Reaches(f, to); g != w {
				t.Fatalf("%s: Reaches(%d,%d) = %v, fresh closure says %v", ctx, f, to, g, w)
			}
		}
	}
}

func TestClosureUpdateAdditive(t *testing.T) {
	g := New()
	for i := 0; i < 8; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i))
	}
	c := NewClosure(g)
	// Chain 0→1→2→3, built incrementally.
	for i := 0; i < 3; i++ {
		g.AddEdgeID(i, i+1)
		if !c.Update() {
			t.Fatalf("additive edge %d→%d forced a rebuild", i, i+1)
		}
	}
	equalClosures(t, c, NewClosure(g), 8, "chain")
	if !c.Reaches(0, 3) || c.Reaches(3, 0) {
		t.Fatal("chain reachability wrong")
	}
	// Edge into the middle of the chain must propagate to all predecessors.
	g.AddEdgeID(2, 5)
	if !c.Update() {
		t.Fatal("additive edge forced a rebuild")
	}
	if !c.Reaches(0, 5) || !c.Reaches(1, 5) {
		t.Fatal("propagation to transitive predecessors failed")
	}
	equalClosures(t, c, NewClosure(g), 8, "branch")
}

func TestClosureUpdateSCCMerge(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i))
	}
	g.AddEdgeID(0, 1)
	g.AddEdgeID(1, 2)
	g.AddEdgeID(2, 3)
	g.AddEdgeID(5, 0)
	c := NewClosure(g)
	// Close the cycle 0→1→2→0: all three must now reach each other, and the
	// outside predecessor 5 must see the union.
	g.AddEdgeID(2, 0)
	if !c.Update() {
		t.Fatal("cycle-closing edge forced a rebuild; OR-propagation should handle SCC merges")
	}
	equalClosures(t, c, NewClosure(g), 6, "scc-merge")
	for _, pair := range [][2]int{{0, 3}, {1, 0}, {2, 1}, {5, 3}} {
		if !c.Reaches(pair[0], pair[1]) {
			t.Fatalf("after merge, %d should reach %d", pair[0], pair[1])
		}
	}
}

func TestClosureUpdateVertexGrowth(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	c := NewClosure(g)
	// New vertices within the allocated stride are appended incrementally.
	id := g.AddVertex("c")
	g.AddEdgeID(g.Lookup("b"), id)
	if !c.Update() {
		t.Fatal("in-stride vertex growth forced a rebuild")
	}
	if !c.Reaches(g.Lookup("a"), id) {
		t.Fatal("a should reach the new vertex c")
	}
	equalClosures(t, c, NewClosure(g), 3, "growth")
}

// TestClosureUpdateLatePredecessor replays a window where a vertex added
// late in the log is already a predecessor (at head state) of an earlier
// edge's propagation front; the worklist must not touch its not-yet-grown
// row. Regression test for a slice-bounds panic.
func TestClosureUpdateLatePredecessor(t *testing.T) {
	g := New()
	g.AddVertex("a")
	g.AddVertex("b")
	c := NewClosure(g)
	// Window: edge a→b, then a brand-new vertex that points at a.
	g.AddEdge("a", "b")
	id := g.AddVertex("p")
	g.AddEdgeID(id, g.Lookup("a"))
	if !c.Update() {
		t.Fatal("additive window forced a rebuild")
	}
	if !c.Reaches(id, g.Lookup("b")) {
		t.Fatal("late vertex should reach b through a")
	}
	equalClosures(t, c, NewClosure(g), 3, "late-predecessor")
}

func TestClosureUpdateRemovalRebuilds(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	c := NewClosure(g)
	g.RemoveEdge("a", "b")
	if c.Update() {
		t.Fatal("edge removal reported as additive")
	}
	if c.Reaches(g.Lookup("a"), g.Lookup("c")) {
		t.Fatal("stale reachability survived removal")
	}
	equalClosures(t, c, NewClosure(g), 3, "removal")
}

func TestClosureUpdateLogWindowFallback(t *testing.T) {
	g := New()
	g.AddVertex("root")
	c := NewClosure(g)
	// Overflow the mutation log; the closure must rebuild, not mis-replay.
	for i := 0; i < maxMutationLog+10; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i))
	}
	g.AddEdge("root", "v0")
	c.Update()
	if !c.Reaches(g.Lookup("root"), g.Lookup("v0")) {
		t.Fatal("closure wrong after log-window fallback")
	}
}

// agreesWithDFS checks every pair of c, which must be current, against a
// freshly built closure and against the digraph's own DFS.
func agreesWithDFS(t *testing.T, c *Closure, g *Digraph, ctx string) {
	t.Helper()
	if c.Generation() != g.Generation() {
		t.Fatalf("%s: closure not caught up", ctx)
	}
	n := g.NumVertices()
	equalClosures(t, c, NewClosure(g), n, ctx)
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if got, want := c.Reaches(f, to), g.ReachesID(f, to); got != want {
				t.Fatalf("%s: Reaches(%d,%d) = %v, DFS says %v", ctx, f, to, got, want)
			}
		}
	}
}

// sourceOf returns a vertex with no predecessor, or -1 if there is none.
func sourceOf(g *Digraph, rng *rand.Rand) int {
	n := g.NumVertices()
	for i, s := 0, rng.Intn(n); i < n; i++ {
		if v := (s + i) % n; len(g.Predecessors(v)) == 0 {
			return v
		}
	}
	return -1
}

// TestClosureUpdateRandomized replays random mutation traces and checks the
// incrementally maintained closure against a freshly built one and against
// DFS. Windows of several mutations are replayed at once (the engine's spare
// replicas catch up on multi-command windows), interleaved with single-step
// updates. Sources — vertices with no column — gain their first predecessor
// inside those windows, sometimes through a self-loop; a last case fills the
// row stride so that a promotion has to rebuild.
func TestClosureUpdateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 5 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddVertex(fmt.Sprintf("v%d", i))
		}
		c := NewClosure(g)
		for step := 0; step < 60; step++ {
			// Batch 1–5 mutations into one replay window.
			for k := 1 + rng.Intn(5); k > 0; k-- {
				switch r := rng.Float64(); {
				case r < 0.55:
					g.AddEdgeID(rng.Intn(n), rng.Intn(n))
				case r < 0.70:
					// A source gains its first predecessor, sometimes itself.
					if s := sourceOf(g, rng); s >= 0 {
						from := rng.Intn(n)
						if rng.Intn(4) == 0 {
							from = s
						}
						g.AddEdgeID(from, s)
					}
				case r < 0.85 && g.NumEdges() > 0:
					es := g.Edges()
					e := es[rng.Intn(len(es))]
					g.RemoveEdgeID(e[0], e[1])
				default:
					id := g.AddVertex(fmt.Sprintf("v%d", n))
					n++
					switch rng.Intn(4) {
					case 0:
						// A late vertex points back into the old graph, so
						// earlier window entries see it as a head predecessor.
						g.AddEdgeID(id, rng.Intn(n))
					case 1:
						g.AddEdgeID(rng.Intn(n), id)
					case 2:
						g.AddEdgeID(id, id)
					}
				}
			}
			c.Update()
			agreesWithDFS(t, c, g, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}

	// 100 sources give a one-word stride; one window then chains them, so
	// each gains a predecessor and the 65th promotion finds no column left.
	g := New()
	for i := 0; i < 100; i++ {
		g.AddVertex(fmt.Sprintf("v%d", i))
	}
	c := NewClosure(g)
	if c.words != 1 {
		t.Fatalf("100 sources got a %d-word stride, want 1", c.words)
	}
	for i := 1; i < 100; i++ {
		g.AddEdgeID(i-1, i)
	}
	if c.Update() {
		t.Fatal("promotions past the stride were applied without a rebuild")
	}
	agreesWithDFS(t, c, g, "stride full")
}

// TestClosureRowsSkipSources pins the layout on a write-heavy tenant's
// shape: 2 048 users assigned into a 64-role chain. Only the roles have a
// predecessor, so a row is three words (a column per vertex kept 862 KB of
// rows), and users joining later never force a rebuild.
func TestClosureRowsSkipSources(t *testing.T) {
	g := New()
	for i := 1; i < 64; i++ {
		g.AddEdge(fmt.Sprintf("r%d", i-1), fmt.Sprintf("r%d", i))
	}
	for i := 0; i < 2048; i++ {
		g.AddEdge(fmt.Sprintf("u%d", i), "r0")
	}
	c := NewClosure(g)
	if kb := len(c.bits) * 8 / 1024; kb > 64 {
		t.Fatalf("closure keeps %d KB of rows, want ≤ 64", kb)
	}
	for i := 2048; i < 2048+4096; i++ {
		g.AddEdge(fmt.Sprintf("u%d", i), fmt.Sprintf("r%d", i%64))
		if !c.Update() {
			t.Fatalf("source u%d forced a rebuild", i)
		}
	}
	for _, q := range []struct {
		f, t string
		want bool
	}{{"u5", "r63", true}, {"r0", "u5", false}, {"u3000", "r63", true}, {"u3000", "r0", false}, {"u5", "u3000", false}} {
		if got := c.Reaches(g.Lookup(q.f), g.Lookup(q.t)); got != q.want {
			t.Errorf("Reaches(%s, %s) = %v, want %v", q.f, q.t, got, q.want)
		}
	}
}

func TestCloneKeepsGenerationAndLog(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	c := NewClosure(g)
	cl := g.Clone()
	if cl.Generation() != g.Generation() {
		t.Fatalf("clone generation %d != %d", cl.Generation(), g.Generation())
	}
	// A closure built against g stays valid; the clone mutates independently.
	cl.AddEdge("b", "c")
	if g.Generation() == cl.Generation() {
		t.Fatal("clone mutation leaked into original generation")
	}
	if !c.Reaches(g.Lookup("a"), g.Lookup("b")) {
		t.Fatal("original closure invalidated by clone mutation")
	}
	// And a closure on the clone can update incrementally across the copied log.
	cc := NewClosure(cl)
	cl.AddEdge("c", "d")
	if !cc.Update() {
		t.Fatal("clone closure could not update incrementally")
	}
	if !cc.Reaches(cl.Lookup("a"), cl.Lookup("d")) {
		t.Fatal("clone closure wrong after update")
	}
}
