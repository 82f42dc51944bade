package graph

import (
	"fmt"
	"testing"
)

// FuzzClosureUpdate turns its input into a mutation script over a digraph
// that starts as eight isolated vertices, and after every Update checks each
// pair of the incrementally maintained closure against DFS. Each byte is an
// opcode (mod 4), read with its operand bytes (0 past the end):
//
//	0      add a vertex (at most 160)
//	1 f t  add the edge f→t, ids mod the vertex count
//	2 i    remove edge i of Edges(), mod the edge count
//	3      Update: a window boundary
//
// The script ends with one more Update.
func FuzzClosureUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		g := New()
		for i := 0; i < 8; i++ {
			g.AddVertex(fmt.Sprintf("v%d", i))
		}
		c := NewClosure(g)
		for step := 0; len(script) > 0; step++ {
			switch next() % 4 {
			case 0:
				if n := g.NumVertices(); n < 160 {
					g.AddVertex(fmt.Sprintf("v%d", n))
				}
			case 1:
				n := g.NumVertices()
				g.AddEdgeID(next()%n, next()%n)
			case 2:
				i := next()
				if es := g.Edges(); len(es) > 0 {
					e := es[i%len(es)]
					g.RemoveEdgeID(e[0], e[1])
				}
			case 3:
				c.Update()
				agreesWithDFS(t, c, g, fmt.Sprintf("step %d", step))
			}
		}
		c.Update()
		agreesWithDFS(t, c, g, "end")
	})
}
