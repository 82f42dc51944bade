// Package wire implements the binary data-plane protocol served on the
// dedicated rbacd listener (-wire-addr) alongside HTTP. The contract is the
// HTTP v1 contract — same ops, same admission/deadline/generation/fencing
// semantics, same error-code taxonomy — re-encoded as length-prefixed binary
// frames over persistent, pipelined connections so the socket path stops
// dominating end-to-end latency.
//
// # Frame layout
//
// Every message (request or response) travels in one frame, the same idiom
// as the WAL codec (storage.EncodeFrame):
//
//	[4B payload length, LE] [4B CRC32-IEEE of payload, LE] [payload]
//
// A reader that sees a bad CRC or an implausible length must drop the
// connection: unlike the WAL (where a torn tail is the expected crash
// artifact), a corrupt stream frame means the transport lied.
//
// # Request payload
//
//	off 0      opcode (OpAuthorize..OpPing)
//	off 1..9   request id, u64 LE (echoed verbatim in the response)
//	off 9..17  min_generation, u64 LE (0 = none; reads only)
//	off 17..21 deadline, u32 LE milliseconds (0 = none) — the
//	           X-Request-Deadline equivalent
//	off 21     flags (FlagJustify: return authorization justifications)
//	off 22..   tenant (uvarint length + bytes), then the op body
//
// All strings are length-prefixed byte slices (uvarint + bytes) so the
// server can decode them zero-copy into pooled scratch and intern the hot
// names (tenant/actor/action/object) per connection — no intermediate JSON,
// no per-request maps.
//
// # Response payload
//
//	off 0      status (StatusOK..StatusInternal; 1:1 with the api codes)
//	off 1..9   request id, u64 LE
//	off 9..17  generation, u64 LE (the snapshot/commit generation)
//	off 17..25 epoch, u64 LE (the answering node's replication epoch)
//	off 25..   body: op-specific on StatusOK, the error envelope otherwise
//
// One framing for ALL ops — session ops included — so there is no
// raw-vs-envelope split to trip clients (the HTTP session-create asymmetry
// documented in earlier PRs cannot recur here).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/service"
)

// The request vocabulary — ops, flags, the decoded Request — is the request
// core's (internal/service): this package is its binary codec, and a drain
// decodes straight into the slab the core consumes. The wire names stay.
type (
	// Opcode identifies the operation a request frame carries.
	Opcode = service.Op
	// Request is one decoded request frame. ParseRequest reuses its slices,
	// so a pooled Request is safe to parse into repeatedly.
	Request = service.Request
	// Check is one session access-check item.
	Check = service.Check
)

const (
	OpAuthorize     = service.OpAuthorize
	OpCheck         = service.OpCheck
	OpSubmit        = service.OpSubmit
	OpSessionCreate = service.OpSessionCreate
	OpSessionUpdate = service.OpSessionUpdate
	OpSessionDelete = service.OpSessionDelete
	OpPing          = service.OpPing

	// FlagJustify asks the server to include authorization justifications in
	// authorize/submit results. Off by default: rendering a justification
	// allocates server-side, and the hot path stays allocation-free without.
	FlagJustify = service.FlagJustify
)

// Status is the binary response status, mapped 1:1 onto the api error-code
// taxonomy. StatusOK is the only success value.
type Status uint8

const (
	StatusOK              Status = 0
	StatusBadRequest      Status = 1
	StatusNotFound        Status = 2
	StatusForbidden       Status = 3
	StatusConflict        Status = 4
	StatusStaleGeneration Status = 5
	StatusOverloaded      Status = 6
	StatusDeadline        Status = 7
	StatusUnavailable     Status = 8
	// StatusFenced is the 421-equivalent: the node cannot accept writes
	// under its current epoch. The response header carries the fencing epoch.
	StatusFenced    Status = 9
	StatusMisrouted Status = 10
	StatusInternal  Status = 11
	statusMax       Status = StatusInternal
)

// Code maps a non-OK status to its api error code.
func (s Status) Code() string {
	switch s {
	case StatusBadRequest:
		return api.CodeBadRequest
	case StatusNotFound:
		return api.CodeNotFound
	case StatusForbidden:
		return api.CodeForbidden
	case StatusConflict:
		return api.CodeConflict
	case StatusStaleGeneration:
		return api.CodeStaleGeneration
	case StatusOverloaded:
		return api.CodeOverloaded
	case StatusDeadline:
		return api.CodeDeadline
	case StatusUnavailable:
		return api.CodeUnavailable
	case StatusFenced:
		return api.CodeFenced
	case StatusMisrouted:
		return api.CodeMisrouted
	default:
		return api.CodeInternal
	}
}

// StatusFromCode maps an api error code to its binary status.
func StatusFromCode(code string) Status {
	switch code {
	case api.CodeBadRequest:
		return StatusBadRequest
	case api.CodeNotFound:
		return StatusNotFound
	case api.CodeForbidden:
		return StatusForbidden
	case api.CodeConflict:
		return StatusConflict
	case api.CodeStaleGeneration:
		return StatusStaleGeneration
	case api.CodeOverloaded:
		return StatusOverloaded
	case api.CodeDeadline:
		return StatusDeadline
	case api.CodeUnavailable:
		return StatusUnavailable
	case api.CodeFenced:
		return StatusFenced
	case api.CodeMisrouted:
		return StatusMisrouted
	default:
		return StatusInternal
	}
}

// Vertex tags for the binary command encoding.
const (
	vtxUser  = 1 // user entity: lp name
	vtxRole  = 2 // role entity: lp name
	vtxPerm  = 3 // user privilege: lp action, lp object
	vtxAdmin = 4 // admin privilege: op byte, src kind byte, lp src name, dst vertex
)

// Submit outcome bytes (stable wire values, independent of command.Outcome's
// in-memory representation).
const (
	OutcomeApplied   uint8 = 1
	OutcomeNoChange  uint8 = 2
	OutcomeDenied    uint8 = 3
	OutcomeIllFormed uint8 = 4
)

// OutcomeByte encodes a command.Outcome as its stable wire byte.
func OutcomeByte(o command.Outcome) uint8 {
	switch o {
	case command.Applied:
		return OutcomeApplied
	case command.AppliedNoChange:
		return OutcomeNoChange
	case command.Denied:
		return OutcomeDenied
	default:
		return OutcomeIllFormed
	}
}

// OutcomeName maps a wire outcome byte to the WireName the HTTP API uses.
func OutcomeName(b uint8) string {
	switch b {
	case OutcomeApplied:
		return "applied"
	case OutcomeNoChange:
		return "nochange"
	case OutcomeDenied:
		return "denied"
	default:
		return "illformed"
	}
}

// Codec limits. Decoders enforce these so a hostile frame cannot force a
// large allocation or unbounded recursion; encoders share them so a legal
// writer never produces a frame a reader rejects.
const (
	// maxFramePayload bounds one frame. Far above any real batch, far below
	// the WAL's 1<<28 (a stream peer is less trusted than our own disk).
	maxFramePayload = 1 << 24
	// frameHeaderLen is the fixed [len][crc] prefix.
	frameHeaderLen = 8
	// reqHeaderLen is the fixed request header before the tenant.
	reqHeaderLen = 22
	// respHeaderLen is the fixed response header before the body.
	respHeaderLen = 25
	// maxBatch bounds commands per authorize/submit and checks per check.
	maxBatch = 8192
	// maxRoles bounds role lists on session ops.
	maxRoles = 4096
	// maxVertexDepth bounds admin-privilege nesting on decode; the model
	// grammar is finite in practice and the paper's examples are depth ≤ 3.
	maxVertexDepth = 32
)

// ErrMalformed marks a payload the decoder rejected. Connection handlers
// treat it as fatal for the frame but answer StatusBadRequest rather than
// dropping the connection (framing was intact; the body was nonsense).
var ErrMalformed = errors.New("wire: malformed payload")

// ErrCorruptFrame marks a framing-level failure: bad CRC or implausible
// length. The connection must be dropped.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// errShort is the internal sentinel for truncated reads inside a payload.
var errShort = fmt.Errorf("%w: truncated", ErrMalformed)

// AppendFrame appends one complete frame carrying payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// beginFrame reserves a frame header at the end of buf and returns the
// header offset. The caller appends the payload, then calls endFrame.
func beginFrame(buf []byte) (int, []byte) {
	off := len(buf)
	return off, append(buf, make([]byte, frameHeaderLen)...)
}

// endFrame backfills the header reserved by beginFrame once the payload
// (everything after the header) has been appended.
func endFrame(buf []byte, off int) ([]byte, error) {
	payload := buf[off+frameHeaderLen:]
	if len(payload) > maxFramePayload {
		return buf, fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[off+4:off+8], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// NextFrame scans the beginning of buf for one complete frame. ok=false
// means the frame is incomplete and the caller needs more bytes. A non-nil
// error means the stream is corrupt (bad CRC, implausible length) and the
// connection must be dropped. On success, payload aliases buf and n is the
// total bytes consumed (header + payload).
func NextFrame(buf []byte) (payload []byte, n int, ok bool, err error) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false, nil
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	if length > maxFramePayload {
		return nil, 0, false, fmt.Errorf("%w: implausible length %d", ErrCorruptFrame, length)
	}
	end := frameHeaderLen + int(length)
	if len(buf) < end {
		return nil, 0, false, nil
	}
	payload = buf[frameHeaderLen:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, false, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return payload, end, true, nil
}

// DecodeFrames scans data for complete, checksummed frames from the front
// and returns the payloads plus the byte offset of the end of the last good
// frame. Scanning stops at the first torn, corrupt, or implausible frame —
// the exact valid prefix, mirroring the WAL's DecodeFrames contract. It
// never panics on arbitrary input.
func DecodeFrames(data []byte) (validEnd int, payloads [][]byte) {
	off := 0
	for {
		payload, n, ok, err := NextFrame(data[off:])
		if !ok || err != nil {
			return off, payloads
		}
		payloads = append(payloads, payload)
		off += n
	}
}

// Interner deduplicates hot strings (tenant/actor/action/object/user/role
// names) per connection so steady-state decode performs zero string
// allocations: the m[string(b)] lookup compiles to a no-alloc map probe,
// and workloads reuse a small vocabulary. The table is size-capped; once
// full, unseen strings still decode correctly, just without reuse.
type Interner struct {
	m map[string]string
	// v caches decoded vertices keyed by their full wire encoding, so the
	// interface boxing a vertex decode would otherwise pay (storing an
	// Entity into a model.Vertex allocates) is amortized to zero for the
	// hot vocabulary.
	v map[string]model.Vertex
}

// maxInterned caps the per-connection intern tables.
const maxInterned = 1 << 15

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		m: make(map[string]string, 64),
		v: make(map[string]model.Vertex, 64),
	}
}

// Intern returns a string equal to b, reusing a previously returned
// instance when possible.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	return s
}

func (in *Interner) vertex(enc []byte) (model.Vertex, bool) {
	v, ok := in.v[string(enc)]
	return v, ok
}

func (in *Interner) putVertex(enc []byte, v model.Vertex) {
	if len(in.v) < maxInterned {
		in.v[string(enc)] = v
	}
}

// AuthzResult is one authorize answer.
type AuthzResult struct {
	Allowed bool
	// Justification is the authorizing privilege rendered as a string; empty
	// unless the request carried FlagJustify (or the check was denied).
	Justification string
}

// StepOutcome is one submit answer.
type StepOutcome struct {
	// Outcome is one of the Outcome* wire bytes.
	Outcome uint8
	// Justification as for AuthzResult.
	Justification string
}

// Response is one decoded response frame.
type Response struct {
	Status     Status
	ID         uint64
	Generation uint64
	Epoch      uint64

	// Success bodies (by the request's opcode):
	Authz   []AuthzResult // authorize
	Steps   []StepOutcome // submit
	Allowed []bool        // check
	Session uint64        // session_create / session_update
	User    string
	Roles   []string

	// Error body (any non-OK status):
	Message       string
	RetryAfterSec uint32
	Node          string
	MinGen        uint64
}

// Reset clears r for reuse, keeping slice capacity — the pooled-request idiom
// for clients that rebuild requests in place.
func (r *Response) Reset() {
	r.Status, r.ID, r.Generation, r.Epoch = 0, 0, 0, 0
	r.Authz = r.Authz[:0]
	r.Steps = r.Steps[:0]
	r.Allowed = r.Allowed[:0]
	r.Session = 0
	r.Roles = r.Roles[:0]
	r.User, r.Message, r.Node = "", "", ""
	r.RetryAfterSec, r.MinGen = 0, 0
}

// Err converts a non-OK response into the typed *api.Error the HTTP client
// surfaces, so callers dispatch on the same codes either way. OK responses
// return nil.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	e := &api.Error{
		Code:          r.Status.Code(),
		Message:       r.Message,
		Epoch:         r.Epoch,
		Generation:    r.Generation,
		MinGeneration: r.MinGen,
		RetryAfter:    int(r.RetryAfterSec),
		Node:          r.Node,
	}
	return e
}

// --- encoding helpers ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendVertex(dst []byte, v model.Vertex) ([]byte, error) {
	switch t := v.(type) {
	case model.Entity:
		tag := byte(vtxUser)
		if t.Kind == model.KindRole {
			tag = vtxRole
		} else if t.Kind != model.KindUser {
			return dst, fmt.Errorf("wire: entity kind %d not encodable", t.Kind)
		}
		dst = append(dst, tag)
		return appendString(dst, t.Name), nil
	case model.UserPrivilege:
		dst = append(dst, vtxPerm)
		dst = appendString(dst, t.Action)
		return appendString(dst, t.Object), nil
	case model.AdminPrivilege:
		dst = append(dst, vtxAdmin, byte(t.Op), byte(t.Src.Kind))
		dst = appendString(dst, t.Src.Name)
		return appendVertex(dst, t.Dst)
	default:
		return dst, fmt.Errorf("wire: vertex type %T not encodable", v)
	}
}

func appendCommand(dst []byte, c command.Command) ([]byte, error) {
	dst = appendString(dst, c.Actor)
	dst = append(dst, byte(c.Op))
	var err error
	if dst, err = appendVertex(dst, c.From); err != nil {
		return dst, err
	}
	return appendVertex(dst, c.To)
}

// AppendRequest appends req as one complete frame to dst.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	off, dst := beginFrame(dst)
	dst = append(dst, byte(req.Op))
	dst = appendU64(dst, req.ID)
	dst = appendU64(dst, req.MinGen)
	dst = binary.LittleEndian.AppendUint32(dst, req.DeadlineMS)
	dst = append(dst, req.Flags)
	dst = appendString(dst, req.Tenant)
	var err error
	switch req.Op {
	case OpAuthorize, OpSubmit:
		if len(req.Cmds) > maxBatch {
			return dst, fmt.Errorf("wire: batch of %d exceeds limit %d", len(req.Cmds), maxBatch)
		}
		dst = appendUvarint(dst, uint64(len(req.Cmds)))
		for _, c := range req.Cmds {
			if dst, err = appendCommand(dst, c); err != nil {
				return dst, err
			}
		}
	case OpCheck:
		if len(req.Checks) > maxBatch {
			return dst, fmt.Errorf("wire: batch of %d exceeds limit %d", len(req.Checks), maxBatch)
		}
		dst = appendU64(dst, req.Session)
		dst = appendUvarint(dst, uint64(len(req.Checks)))
		for _, c := range req.Checks {
			dst = appendString(dst, c.Action)
			dst = appendString(dst, c.Object)
		}
	case OpSessionCreate:
		if len(req.Roles) > maxRoles {
			return dst, fmt.Errorf("wire: %d roles exceeds limit %d", len(req.Roles), maxRoles)
		}
		dst = appendString(dst, req.User)
		dst = appendUvarint(dst, uint64(len(req.Roles)))
		for _, r := range req.Roles {
			dst = appendString(dst, r)
		}
	case OpSessionUpdate:
		if len(req.Activate) > maxRoles || len(req.Deactivate) > maxRoles {
			return dst, fmt.Errorf("wire: role list exceeds limit %d", maxRoles)
		}
		dst = appendU64(dst, req.Session)
		dst = appendUvarint(dst, uint64(len(req.Activate)))
		for _, r := range req.Activate {
			dst = appendString(dst, r)
		}
		dst = appendUvarint(dst, uint64(len(req.Deactivate)))
		for _, r := range req.Deactivate {
			dst = appendString(dst, r)
		}
	case OpSessionDelete:
		dst = appendU64(dst, req.Session)
	case OpPing:
		// Header only.
	default:
		return dst, fmt.Errorf("wire: opcode %d not encodable", req.Op)
	}
	return endFrame(dst, off)
}

// AppendResponse appends resp as one complete frame to dst. The success
// body encoded is chosen by which result slice is populated; error bodies
// are encoded for any non-OK status.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	off, dst := beginFrame(dst)
	dst = append(dst, byte(resp.Status))
	dst = appendU64(dst, resp.ID)
	dst = appendU64(dst, resp.Generation)
	dst = appendU64(dst, resp.Epoch)
	if resp.Status != StatusOK {
		dst = appendString(dst, resp.Message)
		dst = appendUvarint(dst, uint64(resp.RetryAfterSec))
		dst = appendString(dst, resp.Node)
		dst = appendU64(dst, resp.MinGen)
		return endFrame(dst, off)
	}
	switch {
	case resp.Authz != nil:
		dst = appendUvarint(dst, uint64(len(resp.Authz)))
		for _, a := range resp.Authz {
			dst = appendBool(dst, a.Allowed)
			dst = appendString(dst, a.Justification)
		}
	case resp.Steps != nil:
		dst = appendUvarint(dst, uint64(len(resp.Steps)))
		for _, s := range resp.Steps {
			dst = append(dst, s.Outcome)
			dst = appendString(dst, s.Justification)
		}
	case resp.Allowed != nil:
		dst = appendUvarint(dst, uint64(len(resp.Allowed)))
		for _, ok := range resp.Allowed {
			dst = appendBool(dst, ok)
		}
	case resp.Session != 0 || resp.User != "":
		dst = appendU64(dst, resp.Session)
		dst = appendString(dst, resp.User)
		dst = appendUvarint(dst, uint64(len(resp.Roles)))
		for _, r := range resp.Roles {
			dst = appendString(dst, r)
		}
	default:
		// Empty body: ping, session_delete.
	}
	return endFrame(dst, off)
}

// --- decoding helpers ---

// reader walks a payload without copying. All methods are bounds-checked;
// a short or malformed read poisons the reader and every later read fails.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.fail(errShort)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail(errShort)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(errShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint", ErrMalformed))
		return 0
	}
	r.off += n
	return v
}

// bytes returns the next length-prefixed byte slice, aliasing the payload.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail(errShort)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// str decodes a length-prefixed string through the interner (or a plain
// copy when in is nil).
func (r *reader) str(in *Interner) string {
	b := r.bytes()
	if r.err != nil {
		return ""
	}
	if in != nil {
		return in.Intern(b)
	}
	return string(b)
}

// count reads a batch count and validates it against both the hard limit
// and the plausible maximum for the remaining payload (each item costs at
// least one byte), so a hostile count cannot force a large allocation.
func (r *reader) count(limit int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(limit) || n > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("%w: implausible count %d", ErrMalformed, n))
		return 0
	}
	return int(n)
}

func (r *reader) vertex(in *Interner, depth int) model.Vertex {
	if depth > maxVertexDepth {
		r.fail(fmt.Errorf("%w: vertex nesting exceeds %d", ErrMalformed, maxVertexDepth))
		return nil
	}
	switch tag := r.u8(); tag {
	case vtxUser:
		return model.Entity{Kind: model.KindUser, Name: r.str(in)}
	case vtxRole:
		return model.Entity{Kind: model.KindRole, Name: r.str(in)}
	case vtxPerm:
		return model.UserPrivilege{Action: r.str(in), Object: r.str(in)}
	case vtxAdmin:
		op := model.Op(r.u8())
		kind := model.Kind(r.u8())
		name := r.str(in)
		dst := r.vertex(in, depth+1)
		if r.err != nil {
			return nil
		}
		if !op.Valid() || !kind.Valid() {
			r.fail(fmt.Errorf("%w: bad admin privilege", ErrMalformed))
			return nil
		}
		return model.AdminPrivilege{Op: op, Src: model.Entity{Kind: kind, Name: name}, Dst: dst}
	default:
		if r.err == nil {
			r.fail(fmt.Errorf("%w: unknown vertex tag %d", ErrMalformed, tag))
		}
		return nil
	}
}

// skipVertex advances past one encoded vertex without building it,
// returning false on malformed input (the caller then decodes normally to
// surface the error). It lets cachedVertex find the encoding's extent for
// a cache probe before paying for a decode.
func (r *reader) skipVertex(depth int) bool {
	if r.err != nil || depth > maxVertexDepth {
		return false
	}
	switch tag := r.u8(); tag {
	case vtxUser, vtxRole:
		r.bytes()
	case vtxPerm:
		r.bytes()
		r.bytes()
	case vtxAdmin:
		r.u8()
		r.u8()
		r.bytes()
		if !r.skipVertex(depth + 1) {
			return false
		}
	default:
		return false
	}
	return r.err == nil
}

// cachedVertex decodes one vertex through the interner's vertex cache: a
// hit returns the previously boxed value with no allocation, a miss decodes
// and caches. A nil interner decodes directly.
func (r *reader) cachedVertex(in *Interner) model.Vertex {
	if r.err != nil {
		return nil
	}
	if in == nil {
		return r.vertex(nil, 0)
	}
	start := r.off
	if r.skipVertex(0) {
		enc := r.buf[start:r.off]
		if v, ok := in.vertex(enc); ok {
			return v
		}
	}
	// Miss (or malformed): rewind and decode for real. r.err was nil on
	// entry, so clearing it only discards a failed skip's poisoning.
	r.off = start
	r.err = nil
	v := r.vertex(in, 0)
	if r.err == nil {
		in.putVertex(r.buf[start:r.off], v)
	}
	return v
}

func (r *reader) commandInto(in *Interner, c *command.Command) {
	c.Actor = r.str(in)
	op := model.Op(r.u8())
	c.From = r.cachedVertex(in)
	c.To = r.cachedVertex(in)
	if r.err != nil {
		return
	}
	if !op.Valid() {
		r.fail(fmt.Errorf("%w: bad command op %d", ErrMalformed, op))
		return
	}
	c.Op = op
}

// done verifies the whole payload was consumed; trailing garbage is
// malformed (it would hide framing bugs).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)-r.off)
	}
	return nil
}

// ParseRequest decodes one request payload into req, reusing req's slices.
// Strings are interned through in when non-nil. The decoded request aliases
// nothing from payload: every string is either interned or copied, so the
// caller may reuse the payload buffer immediately.
func ParseRequest(payload []byte, req *Request, in *Interner) error {
	req.Reset()
	r := &reader{buf: payload}
	op := Opcode(r.u8())
	req.ID = r.u64()
	req.MinGen = r.u64()
	req.DeadlineMS = r.u32()
	req.Flags = r.u8()
	req.Tenant = r.str(in)
	if r.err != nil {
		return r.err
	}
	if !op.Valid() {
		return fmt.Errorf("%w: unknown opcode %d", ErrMalformed, op)
	}
	req.Op = op
	switch op {
	case OpAuthorize, OpSubmit:
		n := r.count(maxBatch)
		for i := 0; i < n && r.err == nil; i++ {
			req.Cmds = append(req.Cmds, command.Command{})
			r.commandInto(in, &req.Cmds[len(req.Cmds)-1])
		}
	case OpCheck:
		req.Session = r.u64()
		n := r.count(maxBatch)
		for i := 0; i < n && r.err == nil; i++ {
			req.Checks = append(req.Checks, Check{Action: r.str(in), Object: r.str(in)})
		}
	case OpSessionCreate:
		req.User = r.str(in)
		n := r.count(maxRoles)
		for i := 0; i < n && r.err == nil; i++ {
			req.Roles = append(req.Roles, r.str(in))
		}
	case OpSessionUpdate:
		req.Session = r.u64()
		n := r.count(maxRoles)
		for i := 0; i < n && r.err == nil; i++ {
			req.Activate = append(req.Activate, r.str(in))
		}
		n = r.count(maxRoles)
		for i := 0; i < n && r.err == nil; i++ {
			req.Deactivate = append(req.Deactivate, r.str(in))
		}
	case OpSessionDelete:
		req.Session = r.u64()
	case OpPing:
		// Header only.
	}
	return r.done()
}

// ParseResponse decodes one response payload into resp, reusing resp's
// slices. op is the opcode of the request the response answers (responses
// do not re-state it; the client's pipeline knows which call is next).
func ParseResponse(payload []byte, op Opcode, resp *Response) error {
	resp.Reset()
	r := &reader{buf: payload}
	status := Status(r.u8())
	resp.ID = r.u64()
	resp.Generation = r.u64()
	resp.Epoch = r.u64()
	if r.err != nil {
		return r.err
	}
	if status > statusMax {
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, status)
	}
	resp.Status = status
	if status != StatusOK {
		resp.Message = r.str(nil)
		ra := r.uvarint()
		resp.Node = r.str(nil)
		resp.MinGen = r.u64()
		if r.err == nil && ra > 1<<31 {
			return fmt.Errorf("%w: implausible retry_after", ErrMalformed)
		}
		resp.RetryAfterSec = uint32(ra)
		return r.done()
	}
	switch op {
	case OpAuthorize:
		n := r.count(maxBatch)
		for i := 0; i < n && r.err == nil; i++ {
			resp.Authz = append(resp.Authz, AuthzResult{Allowed: r.u8() == 1, Justification: r.str(nil)})
		}
	case OpSubmit:
		n := r.count(maxBatch)
		for i := 0; i < n && r.err == nil; i++ {
			resp.Steps = append(resp.Steps, StepOutcome{Outcome: r.u8(), Justification: r.str(nil)})
		}
	case OpCheck:
		n := r.count(maxBatch)
		for i := 0; i < n && r.err == nil; i++ {
			resp.Allowed = append(resp.Allowed, r.u8() == 1)
		}
	case OpSessionCreate, OpSessionUpdate:
		resp.Session = r.u64()
		resp.User = r.str(nil)
		n := r.count(maxRoles)
		for i := 0; i < n && r.err == nil; i++ {
			resp.Roles = append(resp.Roles, r.str(nil))
		}
	case OpSessionDelete, OpPing:
		// Empty body.
	default:
		return fmt.Errorf("%w: unknown request opcode %d", ErrMalformed, op)
	}
	return r.done()
}
