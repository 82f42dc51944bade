package command

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"adminrefine/internal/model"
)

// The binary codec below the HTTP edge. One frame carries every binary
// payload the system writes — a wire-plane request or response
// (internal/wire), a log record (internal/storage), the body of snapshot.bin:
//
//	frame   = len(u32 LE) | crc32(u32 LE, IEEE, of payload) | payload
//
// and one form carries a command wherever a payload holds one — the wire
// plane's authorize and submit bodies and every step and audit record of the
// log, so a logged command is the bytes of the request that carried it:
//
//	command = actor | op u8 | from | to
//
// where from and to are each vertex as its canonical key (model.AppendKey,
// read back by model.ParseKey) and every string — actor, key — is a uvarint
// length and that many bytes. JSON is rendered at the HTTP edge only (Wire).

// ErrMalformed marks a payload that does not decode: its frame was intact,
// its body is not an encoding.
var ErrMalformed = errors.New("malformed payload")

// ErrCorruptFrame marks a frame whose length exceeds the caller's bound or
// whose checksum does not match.
var ErrCorruptFrame = errors.New("corrupt frame")

const frameHeader = 8

// AppendFrame appends one frame to dst whose payload is whatever fill appends
// to the buffer it is handed. A fill error, or a payload over limit bytes,
// appends nothing and returns the error.
func AppendFrame(dst []byte, limit int, fill func([]byte) ([]byte, error)) ([]byte, error) {
	off := len(dst)
	dst, err := fill(append(dst, make([]byte, frameHeader)...))
	if n := len(dst) - off - frameHeader; err == nil && n > limit {
		err = fmt.Errorf("frame payload of %d bytes exceeds %d", n, limit)
	}
	if err != nil {
		return dst[:off], err
	}
	payload := dst[off+frameHeader:]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// NextFrame scans the front of buf for one frame. ok is false while buf
// holds no whole frame; err (ErrCorruptFrame) reports a length over limit or
// a checksum mismatch. On success payload aliases buf and n is the number of
// bytes the frame took.
func NextFrame(buf []byte, limit int) (payload []byte, n int, ok bool, err error) {
	if len(buf) < frameHeader {
		return nil, 0, false, nil
	}
	length := binary.LittleEndian.Uint32(buf)
	if uint64(length) > uint64(limit) {
		return nil, 0, false, fmt.Errorf("%w: implausible length %d", ErrCorruptFrame, length)
	}
	end := frameHeader + int(length)
	if len(buf) < end {
		return nil, 0, false, nil
	}
	payload = buf[frameHeader:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, false, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return payload, end, true, nil
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBinary appends c's binary form. It refuses a command no decoder could
// read back: an op other than ¤ and ♦, or a vertex with no key.
func AppendBinary(dst []byte, c Command) ([]byte, error) {
	if !c.Op.Valid() {
		return dst, fmt.Errorf("command %s: op not encodable", c)
	}
	dst = append(AppendString(dst, c.Actor), byte(c.Op))
	for _, v := range [2]model.Vertex{c.From, c.To} {
		// The key goes in behind a one-byte length prefix, slid right in the
		// rare case its length needs more.
		start := len(dst) + 1
		key, err := model.AppendKey(append(dst, 0), v)
		if err != nil {
			return dst, fmt.Errorf("command %s: %w", c, err)
		}
		if n := len(key) - start; n < 0x80 {
			key[start-1], dst = byte(n), key
		} else {
			var prefix [binary.MaxVarintLen64]byte
			w := binary.PutUvarint(prefix[:], uint64(n))
			dst = append(key, prefix[1:w]...)
			copy(dst[start+w-1:], dst[start:len(key)])
			copy(dst[start-1:], prefix[:w])
		}
	}
	return dst, nil
}

// Names interns what a stream of payloads decodes to — strings, and vertices
// by their canonical key — so a steady stream of one vocabulary decodes
// without allocating: the m[string(b)] lookup compiles to a no-alloc map
// probe, and a vertex hit skips the parse and the interface boxing (storing
// an Entity into a model.Vertex allocates). The wire plane keeps one per
// connection; a nil *Names copies every string and parses every key. Each
// table is capped; once full, unseen names still decode, just without reuse.
type Names struct {
	m map[string]string
	v map[string]model.Vertex
}

// maxNames caps each table of a Names.
const maxNames = 1 << 15

// NewNames returns empty tables.
func NewNames() *Names {
	return &Names{m: make(map[string]string, 64), v: make(map[string]model.Vertex, 64)}
}

// Intern returns a string equal to b, reusing one it returned before when it
// can.
func (n *Names) Intern(b []byte) string {
	if n == nil {
		return string(b)
	}
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(n.m) < maxNames {
		n.m[s] = s
	}
	return s
}

// Vertex returns the vertex whose canonical key is key, parsing it on first
// sight only.
func (n *Names) Vertex(key []byte) (model.Vertex, error) {
	if n == nil {
		return model.ParseKey(string(key))
	}
	if v, ok := n.v[string(key)]; ok {
		return v, nil
	}
	k := string(key)
	v, err := model.ParseKey(k)
	if err == nil && len(n.v) < maxNames {
		n.v[k] = v
	}
	return v, err
}

// Reader decodes a payload front to back without copying it. Every read is
// bounds-checked; the first failure sticks, and every later read returns a
// zero value.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) Reader { return Reader{buf: payload} }

var errShort = fmt.Errorf("%w: truncated", ErrMalformed)

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// next returns the next n bytes, or nil after a failure.
func (r *Reader) next(n int) []byte {
	if r.err == nil && n > len(r.buf)-r.off {
		r.err = errShort
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

// zeros stand in for the fixed-width fields read after a failure.
var zeros [8]byte

// fixed returns the next n ≤ 8 bytes, or zeros after a failure.
func (r *Reader) fixed(n int) []byte {
	if b := r.next(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.fixed(1)[0] }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(fmt.Errorf("%w: bad uvarint", ErrMalformed))
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte string, aliasing the payload.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.Fail(errShort)
	}
	return r.next(int(n))
}

// Rest reads every byte not read yet, aliasing the payload.
func (r *Reader) Rest() []byte { return r.next(len(r.buf) - r.off) }

// Str reads a length-prefixed string through names.
func (r *Reader) Str(names *Names) string {
	if b := r.Bytes(); r.err == nil {
		return names.Intern(b)
	}
	return ""
}

// Count reads an item count and refuses one above limit or above what the
// rest of the payload could hold at a byte an item, so a hostile count cannot
// force a large allocation.
func (r *Reader) Count(limit int) int {
	n := r.Uvarint()
	if r.err == nil && (n > uint64(limit) || n > uint64(len(r.buf)-r.off)) {
		r.Fail(fmt.Errorf("%w: implausible count %d", ErrMalformed, n))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Command reads one command in its binary form (see AppendBinary) into c.
func (r *Reader) Command(c *Command, names *Names) {
	c.Actor, c.Op = r.Str(names), model.Op(r.U8())
	c.From, c.To = r.vertex(names), r.vertex(names)
	if r.err == nil && !c.Op.Valid() {
		r.Fail(fmt.Errorf("%w: bad command op %d", ErrMalformed, c.Op))
	}
}

func (r *Reader) vertex(names *Names) model.Vertex {
	key := r.Bytes()
	if r.err != nil {
		return nil
	}
	v, err := names.Vertex(key)
	if err != nil {
		r.Fail(fmt.Errorf("%w: %v", ErrMalformed, err))
	}
	return v
}

// Done returns the first failure, or an error if bytes remain unread:
// trailing garbage would hide framing bugs.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return r.err
}

// Wire is the JSON form of a command, {"actor","op","from","to"} with each
// vertex as model.MarshalVertex writes it: the HTTP edge's request body, and
// the command fields of a record's JSON (see storage.Record).
type Wire struct {
	Actor string          `json:"actor"`
	Op    string          `json:"op"` // "grant" or "revoke"
	From  json.RawMessage `json:"from"`
	To    json.RawMessage `json:"to"`
}

// EncodeWire converts a command to its JSON form.
func EncodeWire(c Command) (Wire, error) {
	from, err := model.MarshalVertex(c.From)
	if err != nil {
		return Wire{}, err
	}
	to, err := model.MarshalVertex(c.To)
	if err != nil {
		return Wire{}, err
	}
	return Wire{Actor: c.Actor, Op: c.Op.String(), From: from, To: to}, nil
}

// Command decodes the JSON form, refusing a vertex outside the grammar of
// Definition 2 — the HTTP edge's rule.
func (w Wire) Command() (Command, error) { return w.decode(model.UnmarshalVertex) }

// Logged decodes the JSON form a record of log format v1 stored: any vertex
// model.MarshalVertex writes, grammatical or not, since an ill-formed
// command's audit keeps the vertex it was refused for.
func (w Wire) Logged() (Command, error) { return w.decode(model.UnmarshalAnyVertex) }

func (w Wire) decode(vertex func([]byte) (model.Vertex, error)) (Command, error) {
	var op model.Op
	switch w.Op {
	case "grant":
		op = model.OpGrant
	case "revoke":
		op = model.OpRevoke
	default:
		return Command{}, fmt.Errorf("unknown op %q (want grant or revoke)", w.Op)
	}
	from, err := vertex(w.From)
	if err != nil {
		return Command{}, fmt.Errorf("from vertex: %w", err)
	}
	to, err := vertex(w.To)
	if err != nil {
		return Command{}, fmt.Errorf("to vertex: %w", err)
	}
	return Command{Actor: w.Actor, Op: op, From: from, To: to}, nil
}
