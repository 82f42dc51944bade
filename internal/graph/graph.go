// Package graph provides the directed-graph substrate on which policies are
// interpreted. The paper treats an RBAC policy φ as the directed graph of its
// edges UA ∪ RH ∪ PA† and bases every definition on path reachability
// v →φ v'. This package supplies exactly that machinery: mutable digraphs
// over interned vertex keys, reflexive-transitive reachability, transitive
// closure, strongly connected components, condensation, longest chains
// (used for the Remark 2 nesting bound) and DOT export.
//
// Vertices are interned: callers add string keys and receive dense integer
// IDs, which keeps reachability queries allocation-free on the hot path.
//
// The closure keeps a column only for a vertex with a predecessor: no edge
// of UA ∪ RH ∪ PA enters a user, so users, most of a large policy's
// vertices, are sources and take none (see Closure).
package graph

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// NoVertex is returned by Lookup for unknown keys.
const NoVertex = -1

// Digraph is a mutable directed graph over interned string vertices.
// The zero value is not usable; call New.
type Digraph struct {
	ids  map[string]int
	keys []string
	succ [][]int
	pred [][]int
	// numEdges counts the distinct edges; membership is a scan of the shorter
	// of the two adjacency lists an edge appears in.
	numEdges int

	// generation increments on every mutation; cached closures check it.
	generation uint64

	// log records recent mutations so cached closures can catch up
	// incrementally instead of rebuilding. log[i] is the mutation that moved
	// the generation from logBase+i to logBase+i+1; the log is trimmed once
	// it exceeds maxMutationLog, after which closures older than the window
	// fall back to a full rebuild.
	log     []mutation
	logBase uint64
}

// mutation is one logged graph change.
type mutation struct {
	kind mutKind
	f, t int32
}

type mutKind uint8

const (
	mutAddVertex  mutKind = iota // f = new vertex id
	mutAddEdge                   // f -> t inserted
	mutRemoveEdge                // f -> t deleted
)

// maxMutationLog bounds the mutation log; when exceeded, the oldest half is
// dropped and closures that were behind the dropped window rebuild in full.
const maxMutationLog = 8192

func (g *Digraph) record(m mutation) {
	if len(g.log) >= maxMutationLog {
		drop := len(g.log) / 2
		g.log = append(g.log[:0], g.log[drop:]...)
		g.logBase += uint64(drop)
	}
	g.log = append(g.log, m)
	g.generation++
}

// logSince returns the mutations applied after generation gen, or ok=false
// when the log no longer covers that point (the caller must rebuild).
func (g *Digraph) logSince(gen uint64) ([]mutation, bool) {
	if gen < g.logBase || gen > g.generation {
		return nil, false
	}
	return g.log[gen-g.logBase:], true
}

// New returns an empty digraph.
func New() *Digraph { return &Digraph{ids: make(map[string]int)} }

// Load builds the digraph whose vertex i has key keys[i] and successor list
// succ[i] — a decoded snapshot, keeping the writer's vertex ids. It takes
// ownership of both slices (callers carve the lists, capacity-clipped, from
// one flat array) and carves the predecessor lists from a second. The key
// index is the only map filled and the mutation log starts empty. A repeated
// key, an out-of-range target or a repeated edge is an error.
func Load(keys []string, succ [][]int) (*Digraph, error) {
	n := len(keys)
	g := &Digraph{ids: make(map[string]int, n), keys: keys, succ: succ, pred: make([][]int, n)}
	for i, k := range keys {
		g.ids[k] = i
	}
	if len(g.ids) != n || len(succ) != n {
		return nil, fmt.Errorf("graph: %d distinct keys and %d adjacency lists for %d vertices", len(g.ids), len(succ), n)
	}
	indeg := make([]int, n)
	for _, s := range succ {
		for _, t := range s {
			if t < 0 || t >= n {
				return nil, fmt.Errorf("graph: edge target %d out of range", t)
			}
			indeg[t]++
		}
		g.numEdges += len(s)
	}
	pbuf := make([]int, g.numEdges)
	off := 0
	for t, d := range indeg {
		g.pred[t] = pbuf[off : off : off+d]
		off += d
	}
	for f, s := range succ {
		for _, t := range s {
			// Sources arrive in ascending order, so a repeated edge is adjacent.
			if p := g.pred[t]; len(p) > 0 && p[len(p)-1] == f {
				return nil, fmt.Errorf("graph: repeated edge %d -> %d", f, t)
			}
			g.pred[t] = append(g.pred[t], f)
		}
	}
	g.generation = uint64(n + g.numEdges)
	g.logBase = g.generation
	return g, nil
}

// Clone returns an independent deep copy of g with the same vertex ids. The
// generation counter and mutation log are copied too, so incremental-closure
// bookkeeping on the clone behaves identically to the original's (a Closure
// itself pins the *Digraph it was built on and is never transferable).
//
// The adjacency lists are rebuilt over two flat backing arrays sized from
// the edge count — one allocation per direction instead of one per vertex —
// which keeps the writer's copy-on-write resync path cheap on large policies.
// Each per-vertex slice is capacity-clipped, so a later append on the clone
// reallocates that vertex's list instead of clobbering its neighbour's.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		ids:        maps.Clone(g.ids),
		keys:       slices.Clone(g.keys),
		succ:       make([][]int, len(g.succ)),
		pred:       make([][]int, len(g.pred)),
		numEdges:   g.numEdges,
		generation: g.generation,
		log:        slices.Clone(g.log),
		logBase:    g.logBase,
	}
	sbuf := make([]int, 0, g.numEdges)
	for i, s := range g.succ {
		n := len(sbuf)
		sbuf = append(sbuf, s...)
		c.succ[i] = sbuf[n:len(sbuf):len(sbuf)]
	}
	pbuf := make([]int, 0, g.numEdges)
	for i, p := range g.pred {
		n := len(pbuf)
		pbuf = append(pbuf, p...)
		c.pred[i] = pbuf[n:len(pbuf):len(pbuf)]
	}
	return c
}

// AddVertex interns key and returns its ID; existing keys return their
// original ID.
func (g *Digraph) AddVertex(key string) int {
	if id, ok := g.ids[key]; ok {
		return id
	}
	id := len(g.keys)
	g.ids[key] = id
	g.keys = append(g.keys, key)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.record(mutation{kind: mutAddVertex, f: int32(id)})
	return id
}

// Lookup returns the ID of key, or NoVertex if it was never added.
func (g *Digraph) Lookup(key string) int {
	if id, ok := g.ids[key]; ok {
		return id
	}
	return NoVertex
}

// Key returns the string key of vertex id.
func (g *Digraph) Key(id int) string {
	if id < 0 || id >= len(g.keys) {
		return ""
	}
	return g.keys[id]
}

// NumVertices returns the number of interned vertices.
func (g *Digraph) NumVertices() int { return len(g.keys) }

// NumEdges returns the number of distinct directed edges.
func (g *Digraph) NumEdges() int { return g.numEdges }

// Generation returns a counter that changes whenever the graph mutates.
// Callers caching reachability results can use it for invalidation.
func (g *Digraph) Generation() uint64 { return g.generation }

// AddEdge inserts the edge from→to (vertices are interned on demand).
// It reports whether the edge was new.
func (g *Digraph) AddEdge(from, to string) bool {
	f, t := g.AddVertex(from), g.AddVertex(to)
	return g.AddEdgeID(f, t)
}

// AddEdgeID inserts the edge f→t by vertex IDs, reporting whether it was new.
func (g *Digraph) AddEdgeID(f, t int) bool {
	if g.HasEdgeID(f, t) {
		return false
	}
	g.numEdges++
	g.succ[f] = append(g.succ[f], t)
	g.pred[t] = append(g.pred[t], f)
	g.record(mutation{kind: mutAddEdge, f: int32(f), t: int32(t)})
	return true
}

// RemoveEdge deletes the edge from→to if present, reporting whether it
// existed. Vertices are never removed (universes are fixed; see DESIGN.md D6).
func (g *Digraph) RemoveEdge(from, to string) bool {
	f, t := g.Lookup(from), g.Lookup(to)
	if f == NoVertex || t == NoVertex {
		return false
	}
	return g.RemoveEdgeID(f, t)
}

// RemoveEdgeID deletes the edge f→t by IDs, reporting whether it existed.
func (g *Digraph) RemoveEdgeID(f, t int) bool {
	if !g.HasEdgeID(f, t) {
		return false
	}
	g.numEdges--
	g.succ[f] = removeOne(g.succ[f], t)
	g.pred[t] = removeOne(g.pred[t], f)
	g.record(mutation{kind: mutRemoveEdge, f: int32(f), t: int32(t)})
	return true
}

func removeOne(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// HasEdge reports whether the edge from→to is present.
func (g *Digraph) HasEdge(from, to string) bool {
	f, t := g.Lookup(from), g.Lookup(to)
	return f != NoVertex && t != NoVertex && g.HasEdgeID(f, t)
}

// HasEdgeID is HasEdge over vertex IDs: a scan of the shorter of f's
// successor and t's predecessor lists.
func (g *Digraph) HasEdgeID(f, t int) bool {
	if s, p := g.succ[f], g.pred[t]; len(p) < len(s) {
		return slices.Contains(p, f)
	}
	return slices.Contains(g.succ[f], t)
}

// Successors returns the direct successors of vertex id (do not mutate).
func (g *Digraph) Successors(id int) []int { return g.succ[id] }

// Predecessors returns the direct predecessors of vertex id (do not mutate).
func (g *Digraph) Predecessors(id int) []int { return g.pred[id] }

// Edges returns all edges as ID pairs in deterministic order.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, g.numEdges)
	for f, s := range g.succ {
		for _, t := range s {
			out = append(out, [2]int{f, t})
		}
		slices.SortFunc(out[len(out)-len(s):], func(a, b [2]int) int { return a[1] - b[1] })
	}
	return out
}

// Reaches reports v →φ v' as a reflexive-transitive reachability query
// (DESIGN.md D1): true when from == to or a directed path exists.
func (g *Digraph) Reaches(from, to string) bool {
	f, t := g.Lookup(from), g.Lookup(to)
	if f == NoVertex || t == NoVertex {
		// An unknown vertex reaches only itself.
		return from == to
	}
	return g.ReachesID(f, t)
}

// ReachesID is Reaches over vertex IDs.
func (g *Digraph) ReachesID(f, t int) bool {
	if f == t {
		return true
	}
	// Iterative DFS with an explicit stack; policies are sparse so this
	// outperforms materialising a closure for one-off queries.
	visited := make([]bool, len(g.keys))
	stack := make([]int, 0, 16)
	stack = append(stack, f)
	visited[f] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[v] {
			if w == t {
				return true
			}
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// ReachableFrom returns the set of vertex IDs reachable from id, including
// id itself, as a boolean slice indexed by vertex ID.
func (g *Digraph) ReachableFrom(id int) []bool {
	visited := make([]bool, len(g.keys))
	if id < 0 || id >= len(g.keys) {
		return visited
	}
	stack := []int{id}
	visited[id] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[v] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return visited
}

// Path returns one directed path from→to as vertex keys (inclusive), or nil
// if none exists. A reflexive query returns the single-vertex path. Used by
// authorization explanations.
func (g *Digraph) Path(from, to string) []string {
	f, t := g.Lookup(from), g.Lookup(to)
	if from == to && from != "" {
		return []string{from}
	}
	if f == NoVertex || t == NoVertex {
		return nil
	}
	prev := make([]int, len(g.keys))
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	prev[f] = -1 // root
	queue := []int{f}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.succ[v] {
			if prev[w] != -2 {
				continue
			}
			prev[w] = v
			if w == t {
				var rev []int
				for x := t; x != -1; x = prev[x] {
					rev = append(rev, x)
				}
				out := make([]string, len(rev))
				for i := range rev {
					out[i] = g.keys[rev[len(rev)-1-i]]
				}
				return out
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// Closure is a materialised reflexive-transitive closure snapshot of a
// Digraph, valid for the generation at which it was built or last updated.
//
// Every vertex has a bit-row, but only a vertex with a predecessor has a
// column: a source is reached by nothing but itself, which Reaches answers
// from f == t, so a bit for it would always be zero. In a policy graph no
// edge of UA ∪ RH ∪ PA enters a user, so every user is a source and the
// rows are as wide as the roles and privileges, not the vertex count.
//
// A Closure is incrementally maintainable: Update replays the digraph's
// mutation log since the closure's generation. A new vertex appends an empty
// row and takes no column. An edge into a vertex that has no column first
// promotes it: it takes the next column and its own bit. The edge is then
// applied by OR-ing the target's bit-row into the source's row and
// propagating the change to every (transitive) predecessor whose row grows,
// via a worklist over the predecessor lists — a monotone fixpoint that is
// correct even when the new edge merges strongly connected components. Edge
// removals are not monotone, so they (and log-window overruns, or a
// promotion that finds the stride full) fall back to a full rebuild.
//
// A Closure is not safe for concurrent use with Update; concurrent Reaches
// calls on a quiescent closure are safe.
type Closure struct {
	g          *Digraph
	generation uint64
	n          int
	col        []int32  // vertex id → column, or -1 for a vertex with none
	m          int      // columns given
	bits       []uint64 // n rows of `words` words each
	words      int      // row stride; allocated with headroom for promotions

	// scratch state reused across incremental updates.
	inWork []bool
	work   []int
}

// NewClosure materialises the reflexive-transitive closure of g. Queries
// against a stale closure (after g mutated) panic, to surface invalidation
// bugs early; call Update to catch up incrementally instead.
func NewClosure(g *Digraph) *Closure {
	c := &Closure{g: g}
	c.rebuild()
	return c
}

// rebuild recomputes the closure from scratch at the digraph's current
// generation, in reverse topological order of the SCC condensation so each
// row is computed once. Columns go in id order to the vertices that have a
// predecessor.
func (c *Closure) rebuild() {
	g := c.g
	n := g.NumVertices()
	c.col = make([]int32, n)
	c.m = 0
	for v, p := range g.pred {
		c.col[v] = -1
		if len(p) > 0 {
			c.col[v] = int32(c.m)
			c.m++
		}
	}
	// Allocate the row stride with headroom so promotions can be applied
	// incrementally without re-laying-out every row.
	words := (c.m + c.m/2 + 64 + 63) / 64
	c.generation = g.generation
	c.n = n
	c.words = words
	c.bits = make([]uint64, n*words)
	comp, order := g.SCC()
	row := make([]uint64, words) // scratch row shared across SCCs
	for _, scc := range order {
		for i := range row {
			row[i] = 0
		}
		// Union of all out-of-SCC successors' rows, then the members.
		for _, v := range scc {
			if k := c.col[v]; k >= 0 {
				row[k/64] |= 1 << (k % 64)
			}
		}
		cid := comp[scc[0]]
		for _, v := range scc {
			for _, w := range g.succ[v] {
				if comp[w] == cid {
					continue
				}
				wrow := c.bits[w*words : (w+1)*words]
				for i := 0; i < words; i++ {
					row[i] |= wrow[i]
				}
			}
		}
		for _, v := range scc {
			copy(c.bits[v*words:(v+1)*words], row)
		}
	}
}

// Update brings the closure up to date with its digraph. It reports whether
// the delta was purely additive — i.e. it was applied incrementally and
// reachability only grew. A false return means a full rebuild happened
// (edge removal, log window exceeded, or no column left for a promotion);
// the closure is current either way.
func (c *Closure) Update() (additive bool) {
	if c.generation == c.g.generation {
		return true
	}
	entries, ok := c.g.logSince(c.generation)
	if !ok {
		c.rebuild()
		return false
	}
	for _, m := range entries {
		if m.kind == mutAddVertex {
			// Vertex additions are logged in id order, so rows stay contiguous.
			c.bits = append(c.bits, make([]uint64, c.words)...)
			c.col = append(c.col, -1)
			c.n++
		} else if m.kind == mutRemoveEdge || !c.addEdge(int(m.f), int(m.t)) {
			// A removal is not monotone: whatever the window applied so far
			// is discarded with the rest.
			c.rebuild()
			return false
		}
	}
	c.generation = c.g.generation
	return true
}

// addEdge promotes t if it has no column, then ORs t's row into f's row and
// propagates to every predecessor whose row changes. Rows grow monotonically,
// so the worklist converges; cycles (SCC merges) simply saturate the merged
// component's rows. It reports false, having changed nothing, when t needs a
// column and the stride has none left.
func (c *Closure) addEdge(f, t int) bool {
	words := c.words
	if c.col[t] < 0 {
		// Nothing reached t before this edge, so no other row needs its bit.
		if c.m == words*64 {
			return false
		}
		c.col[t] = int32(c.m)
		c.bits[t*words+c.m/64] |= 1 << (c.m % 64)
		c.m++
	}
	if !c.orRow(f, c.bits[t*words:(t+1)*words]) {
		return true
	}
	if cap(c.inWork) < c.n {
		c.inWork = make([]bool, c.n+c.n/2+8)
	}
	inWork := c.inWork[:cap(c.inWork)]
	work := c.work[:0]
	work = append(work, f)
	inWork[f] = true
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[v] = false
		vrow := c.bits[v*words : (v+1)*words]
		for _, p := range c.g.pred[v] {
			// Predecessor lists reflect the digraph's head state, which may
			// include vertices added later in the log window being replayed;
			// their rows do not exist yet. Skipping them is sound: a later
			// vertex's edges all appear after its AddVertex entry, so its row
			// is fully rebuilt by the remaining replay.
			if p >= c.n {
				continue
			}
			if c.orRow(p, vrow) && !inWork[p] {
				inWork[p] = true
				work = append(work, p)
			}
		}
	}
	c.work = work
	return true
}

// orRow ORs src into vertex v's row, reporting whether any bit changed.
func (c *Closure) orRow(v int, src []uint64) bool {
	row := c.bits[v*c.words : (v+1)*c.words]
	changed := false
	for i, w := range src {
		if nv := row[i] | w; nv != row[i] {
			row[i] = nv
			changed = true
		}
	}
	return changed
}

// Generation returns the digraph generation the closure is valid for.
func (c *Closure) Generation() uint64 { return c.generation }

// Reaches reports reflexive-transitive reachability using the materialised
// closure: a vertex with no column is reached only by itself.
func (c *Closure) Reaches(f, t int) bool {
	if c.generation != c.g.generation {
		panic("graph: stale closure used after mutation")
	}
	if f == t {
		return true
	}
	if f < 0 || t < 0 || f >= c.n || t >= c.n {
		return false
	}
	k := int(c.col[t])
	return k >= 0 && c.bits[f*c.words+k/64]&(1<<(k%64)) != 0
}

// SCC computes strongly connected components with Tarjan's algorithm.
// comp maps each vertex ID to its component index; the returned components
// are listed in reverse topological order (every edge goes from a later
// component to an earlier one in the list).
func (g *Digraph) SCC() (comp []int, components [][]int) {
	n := len(g.keys)
	comp = make([]int, n)
	// One exact-size scratch array: index, low, the stack and the members the
	// components are carved from (they leave the stack together). A visited
	// vertex is on the stack until it has a component: comp marks it.
	scratch := make([]int, 4*n)
	index, low := scratch[:n], scratch[n:2*n]
	stack, members := scratch[2*n:2*n:3*n], scratch[3*n:3*n:4*n]
	for i := range comp {
		comp[i], index[i] = -1, -1
	}
	next := 0

	// Iterative Tarjan to avoid recursion depth limits on long chains.
	type frame struct {
		v, childIdx int
	}
	call := make([]frame, 0, n)
	components = make([][]int, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		for len(call) > 0 {
			fr := &call[len(call)-1]
			v := fr.v
			if fr.childIdx < len(g.succ[v]) {
				w := g.succ[v][fr.childIdx]
				fr.childIdx++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					call = append(call, frame{w, 0})
				} else if comp[w] == -1 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = len(components)
					members = append(members, w)
					if w == v {
						break
					}
				}
				components = append(components, members[start:len(members):len(members)])
			}
		}
	}
	return comp, components
}

// LongestChain returns the number of edges on the longest simple path in the
// SCC condensation of g, with every vertex of a non-trivial SCC contributing
// its component once. For an acyclic role hierarchy this is the length of
// the longest chain in RH, the bound Remark 2 conjectures for nesting
// enumeration.
func (g *Digraph) LongestChain() int {
	comp, components := g.SCC()
	// components are in reverse topological order: successors of a component
	// have smaller indices, so a single pass suffices.
	longest := make([]int, len(components))
	best := 0
	for i, members := range components {
		for _, v := range members {
			for _, w := range g.succ[v] {
				if j := comp[w]; j != i && longest[j]+1 > longest[i] {
					longest[i] = longest[j] + 1
				}
			}
		}
		best = max(best, longest[i])
	}
	return best
}

// DOT renders the graph in Graphviz DOT syntax. labels may be nil, in which
// case vertex keys are used; attr may annotate edges (keyed "from\x00to").
func (g *Digraph) DOT(name string, labels map[string]string, attr map[string]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n")
	for id, key := range g.keys {
		label := key
		if labels != nil {
			if l, ok := labels[key]; ok {
				label = l
			}
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, label)
	}
	for _, e := range g.Edges() {
		extra := ""
		if attr != nil {
			if a, ok := attr[g.keys[e[0]]+"\x00"+g.keys[e[1]]]; ok {
				extra = " [" + a + "]"
			}
		}
		fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e[0], e[1], extra)
	}
	b.WriteString("}\n")
	return b.String()
}
