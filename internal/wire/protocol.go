// Package wire implements the binary data-plane protocol served on the
// dedicated rbacd listener (-wire-addr) alongside HTTP. The contract is the
// HTTP v1 contract — same ops, same admission/deadline/generation/fencing
// semantics, same error-code taxonomy — re-encoded as length-prefixed binary
// frames over persistent, pipelined connections so the socket path stops
// dominating end-to-end latency.
//
// # Frame layout
//
// Every message (request or response) travels in one frame of the codec in
// internal/command:
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
// no per-request maps. An authorize or submit body is a count and that many
// commands in the binary form of internal/command, each vertex as its
// canonical key: the bytes a submit's step record carries in the log.
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
	"fmt"

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

// Submit outcome bytes: command.Outcome's stable values.
const (
	OutcomeApplied   = uint8(command.Applied)
	OutcomeNoChange  = uint8(command.AppliedNoChange)
	OutcomeDenied    = uint8(command.Denied)
	OutcomeIllFormed = uint8(command.IllFormed)
)

// OutcomeByte encodes a command.Outcome as its stable wire byte.
func OutcomeByte(o command.Outcome) uint8 { return uint8(o) }

// OutcomeName maps a wire outcome byte to the WireName the HTTP API uses.
func OutcomeName(b uint8) string { return command.Outcome(b).WireName() }

// Codec limits. Decoders enforce these so a hostile frame cannot force a
// large allocation or unbounded recursion; encoders share them so a legal
// writer never produces a frame a reader rejects.
const (
	// maxFramePayload bounds one frame. Far above any real batch, far below
	// the WAL's 1<<28 (a stream peer is less trusted than our own disk).
	maxFramePayload = 1 << 24
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
var ErrMalformed = command.ErrMalformed

// ErrCorruptFrame marks a framing-level failure: bad CRC or implausible
// length. The connection must be dropped.
var ErrCorruptFrame = command.ErrCorruptFrame

// NextFrame scans the beginning of buf for one complete frame. ok=false
// means the frame is incomplete and the caller needs more bytes. A non-nil
// error means the stream is corrupt (bad CRC, implausible length) and the
// connection must be dropped. On success, payload aliases buf and n is the
// total bytes consumed (header + payload).
func NextFrame(buf []byte) (payload []byte, n int, ok bool, err error) {
	return command.NextFrame(buf, maxFramePayload)
}

// Interner is a connection's name tables (command.Names): the hot strings —
// tenant, actor, action, object, user, role — and the vertices by key, so a
// steady-state decode allocates nothing.
type Interner = command.Names

// NewInterner returns empty tables.
func NewInterner() *Interner { return command.NewNames() }

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
	return &api.Error{
		Code:          r.Status.Code(),
		Message:       r.Message,
		Epoch:         r.Epoch,
		Generation:    r.Generation,
		MinGeneration: r.MinGen,
		RetryAfter:    int(r.RetryAfterSec),
		Node:          r.Node,
	}
}

// AppendRequest appends req as one complete frame to dst.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	return command.AppendFrame(dst, maxFramePayload, func(dst []byte) ([]byte, error) {
		dst = append(dst, byte(req.Op))
		dst = binary.LittleEndian.AppendUint64(dst, req.ID)
		dst = binary.LittleEndian.AppendUint64(dst, req.MinGen)
		dst = binary.LittleEndian.AppendUint32(dst, req.DeadlineMS)
		dst = command.AppendString(append(dst, req.Flags), req.Tenant)
		var err error
		switch req.Op {
		case OpAuthorize, OpSubmit:
			if len(req.Cmds) > maxBatch {
				return dst, fmt.Errorf("wire: batch of %d exceeds limit %d", len(req.Cmds), maxBatch)
			}
			dst = binary.AppendUvarint(dst, uint64(len(req.Cmds)))
			for _, c := range req.Cmds {
				if dst, err = command.AppendBinary(dst, c); err != nil {
					return dst, err
				}
			}
		case OpCheck:
			if len(req.Checks) > maxBatch {
				return dst, fmt.Errorf("wire: batch of %d exceeds limit %d", len(req.Checks), maxBatch)
			}
			dst = binary.LittleEndian.AppendUint64(dst, req.Session)
			dst = binary.AppendUvarint(dst, uint64(len(req.Checks)))
			for _, c := range req.Checks {
				dst = command.AppendString(command.AppendString(dst, c.Action), c.Object)
			}
		case OpSessionCreate:
			if len(req.Roles) > maxRoles {
				return dst, fmt.Errorf("wire: %d roles exceeds limit %d", len(req.Roles), maxRoles)
			}
			dst = appendStrings(command.AppendString(dst, req.User), req.Roles)
		case OpSessionUpdate:
			if len(req.Activate) > maxRoles || len(req.Deactivate) > maxRoles {
				return dst, fmt.Errorf("wire: role list exceeds limit %d", maxRoles)
			}
			dst = binary.LittleEndian.AppendUint64(dst, req.Session)
			dst = appendStrings(appendStrings(dst, req.Activate), req.Deactivate)
		case OpSessionDelete:
			dst = binary.LittleEndian.AppendUint64(dst, req.Session)
		case OpPing:
			// Header only.
		default:
			return dst, fmt.Errorf("wire: opcode %d not encodable", req.Op)
		}
		return dst, nil
	})
}

// appendStrings appends a count and that many strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = command.AppendString(dst, s)
	}
	return dst
}

// AppendResponse appends resp as one complete frame to dst. The success
// body encoded is chosen by which result slice is populated; error bodies
// are encoded for any non-OK status.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	return command.AppendFrame(dst, maxFramePayload, func(dst []byte) ([]byte, error) {
		dst = appendResponseHeader(dst, resp.Status, resp.ID, resp.Generation, resp.Epoch)
		if resp.Status != StatusOK {
			return appendErrorBody(dst, resp.Message, resp.RetryAfterSec, resp.Node, resp.MinGen), nil
		}
		switch {
		case resp.Authz != nil:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Authz)))
			for _, a := range resp.Authz {
				dst = command.AppendString(appendBool(dst, a.Allowed), a.Justification)
			}
		case resp.Steps != nil:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Steps)))
			for _, s := range resp.Steps {
				dst = command.AppendString(append(dst, s.Outcome), s.Justification)
			}
		case resp.Allowed != nil:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Allowed)))
			for _, ok := range resp.Allowed {
				dst = appendBool(dst, ok)
			}
		case resp.Session != 0 || resp.User != "":
			dst = binary.LittleEndian.AppendUint64(dst, resp.Session)
			dst = appendStrings(command.AppendString(dst, resp.User), resp.Roles)
		default:
			// Empty body: ping, session_delete.
		}
		return dst, nil
	})
}

// appendResponseHeader appends the fixed response header.
func appendResponseHeader(dst []byte, status Status, id, gen, epoch uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(append(dst, byte(status)), id)
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, gen), epoch)
}

// appendErrorBody appends the error envelope of a non-OK response.
func appendErrorBody(dst []byte, msg string, retryAfter uint32, node string, minGen uint64) []byte {
	dst = binary.AppendUvarint(command.AppendString(dst, msg), uint64(retryAfter))
	return binary.LittleEndian.AppendUint64(command.AppendString(dst, node), minGen)
}

// ParseRequest decodes one request payload into req, reusing req's slices.
// Strings are interned through in when non-nil. The decoded request aliases
// nothing from payload: every string is either interned or copied, so the
// caller may reuse the payload buffer immediately.
func ParseRequest(payload []byte, req *Request, in *Interner) error {
	req.Reset()
	r := command.NewReader(payload)
	op := Opcode(r.U8())
	req.ID = r.U64()
	req.MinGen = r.U64()
	req.DeadlineMS = r.U32()
	req.Flags = r.U8()
	req.Tenant = r.Str(in)
	if r.Err() != nil {
		return r.Err()
	}
	if op < OpAuthorize || op > OpPing {
		// Explain, audit and policy upload are core ops only HTTP decodes.
		return fmt.Errorf("%w: unknown opcode %d", ErrMalformed, op)
	}
	req.Op = op
	switch op {
	case OpAuthorize, OpSubmit:
		n := r.Count(maxBatch)
		for i := 0; i < n && r.Err() == nil; i++ {
			req.Cmds = append(req.Cmds, command.Command{})
			c := &req.Cmds[len(req.Cmds)-1]
			if r.Command(c, in); tooDeep(c.From) || tooDeep(c.To) {
				r.Fail(fmt.Errorf("%w: vertex nesting exceeds %d", ErrMalformed, maxVertexDepth))
			}
		}
	case OpCheck:
		req.Session = r.U64()
		n := r.Count(maxBatch)
		for i := 0; i < n && r.Err() == nil; i++ {
			req.Checks = append(req.Checks, Check{Action: r.Str(in), Object: r.Str(in)})
		}
	case OpSessionCreate:
		req.User = r.Str(in)
		req.Roles = readStrings(&r, in, req.Roles)
	case OpSessionUpdate:
		req.Session = r.U64()
		req.Activate = readStrings(&r, in, req.Activate)
		req.Deactivate = readStrings(&r, in, req.Deactivate)
	case OpSessionDelete:
		req.Session = r.U64()
	case OpPing:
		// Header only.
	}
	return r.Done()
}

// tooDeep reports a privilege nested past maxVertexDepth connectives.
func tooDeep(v model.Vertex) bool {
	a, ok := v.(model.AdminPrivilege)
	return ok && a.Depth() > maxVertexDepth
}

// readStrings reads a role list (count, then strings) into dst.
func readStrings(r *command.Reader, in *Interner, dst []string) []string {
	n := r.Count(maxRoles)
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, r.Str(in))
	}
	return dst
}

// ParseResponse decodes one response payload into resp, reusing resp's
// slices. op is the opcode of the request the response answers (responses
// do not re-state it; the client's pipeline knows which call is next).
func ParseResponse(payload []byte, op Opcode, resp *Response) error {
	resp.Reset()
	r := command.NewReader(payload)
	status := Status(r.U8())
	resp.ID = r.U64()
	resp.Generation = r.U64()
	resp.Epoch = r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if status > statusMax {
		return fmt.Errorf("%w: unknown status %d", ErrMalformed, status)
	}
	resp.Status = status
	if status != StatusOK {
		resp.Message = r.Str(nil)
		ra := r.Uvarint()
		resp.Node = r.Str(nil)
		resp.MinGen = r.U64()
		if r.Err() == nil && ra > 1<<31 {
			return fmt.Errorf("%w: implausible retry_after", ErrMalformed)
		}
		resp.RetryAfterSec = uint32(ra)
		return r.Done()
	}
	switch op {
	case OpAuthorize:
		n := r.Count(maxBatch)
		for i := 0; i < n && r.Err() == nil; i++ {
			resp.Authz = append(resp.Authz, AuthzResult{Allowed: r.U8() == 1, Justification: r.Str(nil)})
		}
	case OpSubmit:
		n := r.Count(maxBatch)
		for i := 0; i < n && r.Err() == nil; i++ {
			resp.Steps = append(resp.Steps, StepOutcome{Outcome: r.U8(), Justification: r.Str(nil)})
		}
	case OpCheck:
		n := r.Count(maxBatch)
		for i := 0; i < n && r.Err() == nil; i++ {
			resp.Allowed = append(resp.Allowed, r.U8() == 1)
		}
	case OpSessionCreate, OpSessionUpdate:
		resp.Session = r.U64()
		resp.User = r.Str(nil)
		resp.Roles = readStrings(&r, nil, resp.Roles)
	case OpSessionDelete, OpPing:
		// Empty body.
	default:
		return fmt.Errorf("%w: unknown request opcode %d", ErrMalformed, op)
	}
	return r.Done()
}
