package policy

import (
	"encoding/binary"
	"errors"
	"fmt"

	"adminrefine/internal/graph"
	"adminrefine/internal/model"
)

// The binary form of a policy is its graph as it stands in memory: the
// vertex table in graph-id order, then each vertex's successor ids,
//
//	uvarint V | uvarint E | V × (uvarint len | key) | V × (uvarint deg | deg × uvarint id)
//
// A vertex is written as its canonical key, which is its structural encoding
// (sort prefix and name for an entity, the term in prefix notation for a
// privilege; model.ParseKey inverts it). The writer formats and sorts
// nothing; the reader builds no key, every key and unescaped name being a
// substring of one copy of the input, and returns the vertex ids and
// adjacency order that were written. Storage frames this form with a length
// and a checksum, and every logged or wire-plane command names its vertices by
// the same keys; only replication's bootstrap document carries a policy as
// JSON (Wire).

// AppendBinary appends the policy's binary form to b.
func (p *Policy) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.verts)))
	b = binary.AppendUvarint(b, uint64(p.g.NumEdges()))
	for id := range p.verts {
		b = binary.AppendUvarint(b, uint64(len(p.g.Key(id))))
		b = append(b, p.g.Key(id)...)
	}
	for id := range p.verts {
		b = binary.AppendUvarint(b, uint64(len(p.g.Successors(id))))
		for _, t := range p.g.Successors(id) {
			b = binary.AppendUvarint(b, uint64(t))
		}
	}
	return b
}

var errBinary = errors.New("policy: malformed binary form")

// DecodeBinary rebuilds the policy AppendBinary wrote and validates it: every
// vertex a well-formed key, every privilege grammatical, every edge between
// sorts some relation admits, no vertex or edge repeated, no byte left over.
// Arbitrary input is an error, never a panic, and nothing is sized from a
// count before the count is checked against the bytes that remain
// (storage.FuzzSnapshotDecode).
func DecodeBinary(data []byte) (*Policy, error) {
	str, off, bad := string(data), 0, false
	// next reads one uvarint no larger than max.
	next := func(max int) int {
		v, n := binary.Uvarint(data[off:])
		off += n
		if n <= 0 || v > uint64(max) {
			bad, off = true, len(data)
			return 0
		}
		return int(v)
	}
	// Every vertex and every edge takes at least a byte.
	nv := next(len(data))
	ne := next(len(data))
	keys, verts, users := make([]string, nv), make([]model.Vertex, nv), 0
	for id := range keys {
		n := next(len(data))
		if n > len(data)-off {
			return nil, errBinary
		}
		keys[id], off = str[off:off+n], off+n
		v, err := model.ParseKey(keys[id])
		if pr, ok := v.(model.Privilege); ok {
			err = model.ValidatePrivilege(pr)
		} else if err == nil && v.(model.Entity).IsUser() {
			users++
		}
		if bad || err != nil {
			return nil, fmt.Errorf("%w: vertex %d: %v", errBinary, id, err)
		}
		verts[id] = v
	}
	p := &Policy{verts: verts, users: make(map[string]int32, users), roles: make(map[string]int32, nv-users)}
	flat, succ := make([]int, ne), make([][]int, nv)
	for f := range succ {
		deg := next(len(flat))
		succ[f], flat = flat[:deg:deg], flat[deg:]
		for i := range succ[f] {
			succ[f][i] = next(nv - 1)
			if _, err := ClassifyEdge(verts[f], verts[succ[f][i]]); err != nil {
				return nil, fmt.Errorf("%w: %v", errBinary, err)
			}
		}
		if e, ok := verts[f].(model.Entity); ok {
			p.index(e, f)
		}
	}
	if bad || len(flat) != 0 || off != len(data) {
		return nil, errBinary
	}
	var err error
	if p.g, err = graph.Load(keys, succ); err != nil {
		return nil, fmt.Errorf("%w: %v", errBinary, err)
	}
	return p, nil
}
