// Package server exposes a tenant.Registry over HTTP/JSON — the deployment
// shape of a standalone policy server (cmd/rbacd). Every data-plane endpoint
// is batched: a request carries a list of commands and one round-trip
// resolves the tenant, acquires one engine snapshot (or one writer pass) and
// answers them all, so the per-query cost of the network service approaches
// the in-process engine cost as batches grow.
//
// Routes (all under /v1, tenant names per tenant.ValidName):
//
//	POST /v1/tenants/{tenant}/authorize      {"commands":[...],"min_generation":G}    → {"results":[{"allowed":...},...],"generation":G'}
//	POST /v1/tenants/{tenant}/submit         {"commands":[...]}                       → {"results":[{"outcome":...},...],"generation":G'}
//	POST /v1/tenants/{tenant}/explain        {"command":{...},"min_generation":G}     → {"explanation":"...","generation":G'}
//	POST /v1/tenants/{tenant}/sessions       {"user":U,"activate":[roles...]}         → {"results":{"session":ID,"user":U,"roles":[...]},"generation":G'}
//	POST /v1/tenants/{tenant}/sessions/{sid} {"activate":[...],"deactivate":[...]}    → same shape (role updates)
//	DELETE /v1/tenants/{tenant}/sessions/{sid}                                        → 204
//	POST /v1/tenants/{tenant}/check          {"session":ID,"checks":[{"action","object"},...],"min_generation":G}
//	                                                                                  → {"results":[{"allowed":...},...],"generation":G'}
//	GET  /v1/tenants/{tenant}/audit?after=N&limit=K                                   → {"records":[...],"total":T,"generation":G'}
//	PUT  /v1/tenants/{tenant}/policy         RPL source                               → 204 (409 once provisioned)
//	GET  /v1/tenants/{tenant}/stats                                                   → tenant.Stats (+ "replication", "sessions")
//	GET  /healthz                                                                     → liveness + uptime + role
//	GET  /v1/replicate/{tenant}/...                                                   → log shipping (primary only; see internal/replication)
//	GET|POST /v1/cluster/...                                                          → role transitions + multi-primary control plane (see cluster.go)
//
// Every non-2xx response body is the unified error envelope of internal/api:
// {"error":{"code":...,"message":...,...}} — clients dispatch on the code,
// never on message text.
//
// This package is the JSON codec of the request core (internal/service):
// every route under /v1/tenants/{tenant}/ but stats decodes into a
// service.Request, crosses service.Core.Do — the pipeline the binary plane
// (internal/wire) crosses, whose ten ops include the three only this codec
// decodes (explain, audit, policy upload) — and encodes from its Response;
// one table maps the core's error codes onto HTTP statuses. HTTP decodes a
// body before admission, as the wire plane does. What HTTP still does before
// it reads a body: route a foreign tenant by the core's Owner verdict (307,
// transparent forward, or 421), 307 a follower's write on GateWrite's
// misrouted, admit /v1/replicate/ under the replication class, and serve
// /stats ungated. Beyond that it parses X-Request-Deadline, stamps
// placement-version and epoch headers, and serves the control plane.
//
// Reads (authorize, explain, stats, sessions, check, audit) of a tenant with
// no durable state return 404 and never create one; writes (submit, policy)
// create the tenant.
//
// Sessions are node-local (see internal/session): a client creates its
// session on the replica it reads from, and a SIGTERM drain drops them
// (they are not replicated — the audit trail and policy are). Checks are
// the paper's access-check workload: each one asks whether the session may
// exercise a user privilege through its activated roles, served by the
// session fast path with the same min_generation consistency contract as
// authorize. The audit endpoint serves the durable audit trail recovered
// from and retained alongside the WAL — on followers this is the replicated
// trail, so audit survives losing the primary.
//
// Generation tokens: every response carries the engine generation it was
// served at, and every write response's generation is the token for
// read-your-writes. A read carrying min_generation waits (bounded by
// Config.MinGenWait) until the serving replica reaches that generation and
// otherwise fails with 409 and the replica's current generation — never a
// stale answer. On a primary the generation is current by construction; on a
// follower it advances as the replication pull loop applies records.
//
// Roles: the server is a role state machine — primary, follower or fenced —
// and the replication source endpoints are always mounted (a non-primary
// answers them 421 + its epoch, the re-point signal). A primary serves
// writes and streams its WAL; a follower (Config.Follower non-nil) serves
// reads from its replicated state — starting a tenant's replication on first
// touch — and answers writes with a 307 redirect to the upstream primary,
// so a client that follows redirects can talk to any replica; a fenced node
// is a deposed ex-primary with no upstream yet: reads keep serving, writes
// answer 421.
//
// Transitions: POST /v1/cluster/promote flips a follower (or fenced node)
// to primary — the fencing epoch advances durably BEFORE the first write is
// accepted, the pull loops stop, and the source starts serving. POST
// /v1/cluster/repoint points a follower (or rejoins a fenced ex-primary) at a new
// upstream; each tenant resumes pulling from its durable local WAL position,
// and any history the dead primary acknowledged but never replicated is
// discarded by a rewinding snapshot bootstrap (see internal/replication).
// A primary that observes a higher epoch on any replication exchange
// demotes itself to fenced on the spot (split-brain is structurally
// impossible: at most one node serves writes per epoch). With
// Config.PromoteOnUpstreamLoss the core probes a follower's upstream's
// /healthz and self-promotes after ProbeThreshold consecutive failures.
//
// Commands travel as {"actor","op","from","to"} with vertices in the JSON
// form of model.MarshalVertex (command.Wire). JSON lives at this edge only:
// below it a command is the binary form of internal/command, which the wire
// plane and the log share, and the audit endpoint renders a record's JSON
// (storage.Record) as it answers.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/model"
	"adminrefine/internal/parser"
	"adminrefine/internal/placement"
	"adminrefine/internal/replication"
	"adminrefine/internal/service"
	"adminrefine/internal/session"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
)

// maxBodyBytes bounds request bodies (policies and batches alike).
const maxBodyBytes = 8 << 20

// HeaderRequestDeadline is the client's per-request time budget: a plain
// integer is milliseconds, anything else is a Go duration ("250ms", "2s").
// The server honors it when it is shorter than Config.MaxRequestTime — a
// client may tighten its deadline but never extend the server's.
const HeaderRequestDeadline = "X-Request-Deadline"

// batchScratch is the per-request working set of the data-plane handlers:
// JSON decode targets, the one-request drain handed to the core, and the
// JSON result buffers, recycled through a pool so a steady request stream
// reuses storage instead of allocating per call. A scratch is only pooled
// again after the response is written.
//
// Every field is request-scoped state and MUST be covered by reset():
// encoding/json merges into existing values, so a decode target carrying a
// previous request's data silently leaks it into any request that omits the
// field (PR 4 shipped exactly this bug with MinGeneration). The regression
// test TestScratchFieldsZeroedBetweenRequests enumerates the fields by
// reflection and fails on any it does not know to be covered.
type batchScratch struct {
	// Decode targets: reset fully (elements and scalars) before every use.
	req      BatchRequest
	checkReq CheckRequest
	// adminReq is the decode target of the promote/repoint control plane.
	adminReq AdminRequest
	// The drain of one the core answers: the request is Reset (every scalar
	// zeroed, slices emptied), the response rebuilt by Do.
	reqs  [1]service.Request
	resps [1]service.Response
	// core holds the engine result buffers the response aliases; Do empties
	// them on entry.
	core service.Scratch
	// JSON result buffers: rebuilt by append from length zero.
	authOut  []AuthorizeResult
	subOut   []SubmitResult
	checkOut []CheckResult
}

// reset zeroes the request-visible state while keeping every buffer's
// capacity warm. Called on every scratch acquisition.
func (sc *batchScratch) reset() {
	// Zero the reused elements before decoding: encoding/json merges into
	// existing slice elements, so without this a command that omits a field
	// would silently inherit that field from a previous request on the same
	// pooled scratch. Rebuilding the structs zeroes the scalar fields
	// (MinGeneration, Session) the same way.
	cmds := sc.req.Commands[:cap(sc.req.Commands)]
	clear(cmds)
	sc.req = BatchRequest{Commands: cmds[:0]}
	checks := sc.checkReq.Checks[:cap(sc.checkReq.Checks)]
	clear(checks)
	sc.checkReq = CheckRequest{Checks: checks[:0]}
	sc.adminReq = AdminRequest{}
	sc.reqs[0].Reset()
	sc.resps[0] = service.Response{}
	sc.authOut = sc.authOut[:0]
	sc.subOut = sc.subOut[:0]
	sc.checkOut = sc.checkOut[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch() *batchScratch {
	sc := scratchPool.Get().(*batchScratch)
	sc.reset()
	return sc
}
func putScratch(s *batchScratch) { scratchPool.Put(s) }

// Config configures a Server: it is the request core's configuration, and
// the facade reads only its Registry, Placement and NodeID.
type Config = service.Config

// Server is the HTTP facade over a node's request core (internal/service),
// which owns the data-plane pipeline and the role state machine; the facade
// adds the JSON codec, HTTP-only routing actions and the control plane.
type Server struct {
	core  *service.Core
	reg   *tenant.Registry
	mux   *http.ServeMux
	start time.Time

	// Cluster plane (see cluster.go): nil placement (or one holding no map)
	// disables routing and the /v1/cluster mutations.
	placement    *placement.Table
	nodeID       string
	peersMu      sync.Mutex
	peerBreakers map[string]*admission.Breaker
	// peerFastFail counts forwards answered 503 on an open peer breaker; it
	// is reported inside the core's breaker_fast_fail.
	peerFastFail atomic.Uint64
}

// peerClient performs node-to-node requests (forwards, gossip, adopt).
// Redirects from a peer (e.g. a follower sharing the owner's node ID) pass
// through verbatim: the original client follows them, exactly as it would
// a direct 307.
var peerClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// New builds a primary server. The registry stays owned by the caller (close
// it after the HTTP listener drains).
func New(reg *tenant.Registry) *Server {
	return NewWithConfig(Config{Registry: reg})
}

// NewWithConfig builds the server in the role cfg implies: a primary serves
// the replication source endpoints, a follower (cfg.Follower non-nil)
// redirects writes upstream instead.
func NewWithConfig(cfg Config) *Server {
	s := &Server{
		core:         service.New(cfg),
		reg:          cfg.Registry,
		mux:          http.NewServeMux(),
		start:        time.Now(),
		placement:    cfg.Placement,
		nodeID:       cfg.NodeID,
		peerBreakers: make(map[string]*admission.Breaker),
	}
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/authorize", s.serveOp(service.OpAuthorize, decodeBatch))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/submit", s.serveOp(service.OpSubmit, decodeBatch))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", s.serveOp(service.OpSessionCreate, decodeSession))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{sid}", s.serveOp(service.OpSessionUpdate, decodeSession))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/sessions/{sid}", s.serveOp(service.OpSessionDelete, decodeSession))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/check", s.serveOp(service.OpCheck, decodeCheck))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/explain", s.serveOp(service.OpExplain, decodeExplain))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/audit", s.serveOp(service.OpAudit, decodeAudit))
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/policy", s.serveOp(service.OpInstallPolicy, decodePolicy))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Control plane: role transitions and cluster topology.
	s.mux.HandleFunc("POST /v1/cluster/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/cluster/repoint", s.handleRepoint)
	s.mux.HandleFunc("GET /v1/cluster/placement", s.handlePlacementGet)
	s.mux.HandleFunc("POST /v1/cluster/placement", s.handlePlacementPush)
	s.mux.HandleFunc("GET /v1/cluster/nodes", s.handleNodesGet)
	s.mux.HandleFunc("POST /v1/cluster/nodes", s.handleNodeRepoint)
	s.mux.HandleFunc("POST /v1/cluster/migrate", s.handleMigrate)
	s.mux.HandleFunc("POST /v1/cluster/adopt", s.handleAdopt)
	// Unknown paths answer the envelope too, not net/http's plain text.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, api.CodeNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
	})
	// The source is always mounted: a non-primary answers its endpoints 421
	// plus its epoch — exactly the re-point signal a stray puller (or a
	// resurrected ex-primary's follower) needs.
	s.core.Source().Register(s.mux)
	return s
}

// Close releases the core's serving state: the failover probe, the
// follower's pull loops, the node-local sessions, and every parked
// replication long-poll (http.Server.Shutdown does not cancel in-flight
// request contexts). Call it before or alongside Shutdown.
func (s *Server) Close() { s.core.Close() }

// DrainSessions drops every open session on this node, returning how many
// were live — the SIGTERM hook (idempotent; Close calls it too).
func (s *Server) DrainSessions() int { return s.core.Sessions().DrainAll() }

// Role names the server's replication role: "primary", "follower" or
// "fenced" (a deposed ex-primary with no upstream yet).
func (s *Server) Role() string { return s.core.Role() }

// Epoch reports the node's current fencing epoch.
func (s *Server) Epoch() uint64 { return s.core.Epoch().Current() }

// Promote and Repoint are the role transitions (see service.Core).
func (s *Server) Promote(ifEpoch uint64) (uint64, error) { return s.core.Promote(ifEpoch) }
func (s *Server) Repoint(upstream string, ifEpoch uint64) error {
	return s.core.Repoint(upstream, ifEpoch)
}

// ServeHTTP implements http.Handler. Before any handler reads a body it
// does the two things only this transport can: in cluster mode, stamp the
// placement version and act on the core's ownership verdict — redirect,
// forward, or 421 (see cluster.go) — without spending local admission
// capacity; and admit replication long-polls under their own class (never
// deadline-bounded: their hold time is the protocol). Everything else —
// deadline, admission, role, generation — is the core's, inside Do; the
// control plane, /healthz and /stats cross no gate, because observability
// and operator intervention must keep working precisely when the node is
// saturated.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.stampPlacement(w.Header())
	if name, ok := tenantPathName(r.URL.Path); ok {
		if e := s.core.Owner(name); e != nil {
			s.routeToOwner(w, r, e)
			return
		}
	} else if strings.HasPrefix(r.URL.Path, "/v1/replicate/") {
		release, e := s.core.Admit(r.Context(), admission.Replication, time.Time{})
		if e != nil {
			writeError(w, admission.Replication, e)
			return
		}
		defer release()
	}
	s.mux.ServeHTTP(w, r)
}

// requestDeadline parses X-Request-Deadline into the core's millisecond
// budget (rounded up; 0 without the header): a bare integer is
// milliseconds, anything else a Go duration. The budget must be positive.
func requestDeadline(r *http.Request) (uint32, error) {
	v := r.Header.Get(HeaderRequestDeadline)
	if v == "" {
		return 0, nil
	}
	var d time.Duration
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		d = time.Duration(ms) * time.Millisecond
	} else if d, err = time.ParseDuration(v); err != nil {
		return 0, fmt.Errorf("bad %s %q: integer milliseconds or Go duration", HeaderRequestDeadline, v)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad %s %q: budget must be positive", HeaderRequestDeadline, v)
	}
	return uint32(min((d+time.Millisecond-1)/time.Millisecond, math.MaxUint32)), nil
}

// statusFor is the one code × class → HTTP status table. The status-code
// contract of a shed: reads refused for capacity get 429 Too Many Requests
// (the node is healthy, just busy — back off and retry here); writes refused
// for capacity and anything cut by its deadline get 503 Service Unavailable.
func statusFor(code string, cl admission.Class) int {
	switch code {
	case api.CodeBadRequest:
		return http.StatusBadRequest
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeForbidden:
		return http.StatusForbidden
	case api.CodeConflict, api.CodeStaleGeneration:
		return http.StatusConflict
	case api.CodeOverloaded:
		if cl == admission.Read {
			return http.StatusTooManyRequests
		}
		return http.StatusServiceUnavailable
	case api.CodeDeadline, api.CodeUnavailable:
		return http.StatusServiceUnavailable
	case api.CodeFenced, api.CodeMisrouted:
		return http.StatusMisdirectedRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeError writes the unified error envelope (see internal/api) under the
// table's status; a node-level fence also travels as the epoch header.
func writeError(w http.ResponseWriter, cl admission.Class, e *api.Error) {
	if e.Epoch > 0 {
		w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(e.Epoch, 10))
	}
	api.Write(w, statusFor(e.Code, cl), e)
}

// httpError is writeError for the codec's and the control plane's own
// failures, which have a code and a Go error but no richer context.
func httpError(w http.ResponseWriter, code string, err error) {
	writeError(w, admission.Write, &api.Error{Code: code, Message: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// nodeURL is r's path and query on another node.
func nodeURL(node string, r *http.Request) string {
	if r.URL.RawQuery != "" {
		return node + r.URL.Path + "?" + r.URL.RawQuery
	}
	return node + r.URL.Path
}

// redirect answers 307 to the same path on another node: the method and
// body survive, so a redirect-following client can talk to any node.
func redirect(w http.ResponseWriter, r *http.Request, node string) {
	http.Redirect(w, r, nodeURL(node, r), http.StatusTemporaryRedirect)
}

// gateWrite consults the core's write gate before a write's body is read,
// reporting whether the write may proceed here. What a follower's misrouted
// means on this transport is a 307 to its upstream; every other refusal
// (open breaker, fence) is the envelope.
func (s *Server) gateWrite(w http.ResponseWriter, r *http.Request) bool {
	e := s.core.GateWrite()
	switch {
	case e == nil:
		return true
	case e.Code == api.CodeMisrouted:
		redirect(w, r, e.Node)
	default:
		writeError(w, admission.Write, e)
	}
	return false
}

// WireCommand is the JSON form of an administrative command (command.Wire).
type WireCommand = command.Wire

// EncodeCommand converts a command to its wire form (the client-side helper
// tests and load drivers use).
func EncodeCommand(c command.Command) (WireCommand, error) { return command.EncodeWire(c) }

// BatchRequest carries the commands of an authorize or submit call.
type BatchRequest struct {
	Commands []WireCommand `json:"commands"`
	// MinGeneration is the read-your-writes token on authorize: the serving
	// replica answers at a generation at least this large (waiting bounded)
	// or fails with 409 — never with a staler state. Ignored on submit.
	MinGeneration uint64 `json:"min_generation,omitempty"`
}

// AuthorizeResult is one authorization decision on the wire.
type AuthorizeResult struct {
	Allowed bool `json:"allowed"`
	// Justification renders the justifying privilege when allowed.
	Justification string `json:"justification,omitempty"`
}

// SubmitResult is one transition outcome on the wire.
type SubmitResult struct {
	Outcome       string `json:"outcome"` // applied | nochange | denied | illformed
	Justification string `json:"justification,omitempty"`
}

// ExplainRequest carries the command of an explain call.
type ExplainRequest struct {
	Command WireCommand `json:"command"`
	// MinGeneration is the same consistency token BatchRequest carries.
	MinGeneration uint64 `json:"min_generation,omitempty"`
}

// SessionRequest creates a session (User + initial Activate set) or updates
// one (Activate / Deactivate role lists; User ignored).
type SessionRequest struct {
	User       string   `json:"user,omitempty"`
	Activate   []string `json:"activate,omitempty"`
	Deactivate []string `json:"deactivate,omitempty"`
	// MinGeneration is the read-your-writes token: role validation runs
	// against a replica state at least this fresh (e.g. right after a
	// grant made the role activatable).
	MinGeneration uint64 `json:"min_generation,omitempty"`
}

// SessionResponse describes a session's current state on this node. It
// travels as the results of the standard batch envelope — the generation it
// was validated at is the envelope's, like every other data-plane response.
type SessionResponse struct {
	Session uint64   `json:"session"`
	User    string   `json:"user"`
	Roles   []string `json:"roles"`
}

// CheckQuery is one access check: may the session perform (action, object)?
type CheckQuery struct {
	Action string `json:"action"`
	Object string `json:"object"`
}

// CheckRequest carries a batch of access checks for one session.
type CheckRequest struct {
	Session uint64       `json:"session"`
	Checks  []CheckQuery `json:"checks"`
	// MinGeneration is the same consistency token BatchRequest carries: the
	// serving replica answers at a generation at least this large or fails
	// with 409 — a follower never serves a check staler than the token.
	MinGeneration uint64 `json:"min_generation,omitempty"`
}

// CheckResult is one access-check verdict on the wire.
type CheckResult struct {
	Allowed bool `json:"allowed"`
}

// batchResponse is the wire envelope of the batched endpoints. Generation
// is the engine generation the batch was served at: on authorize, the
// staleness bound of every decision; on submit, the read-your-writes token
// for subsequent min_generation reads against any replica.
type batchResponse struct {
	Results    any    `json:"results"`
	Generation uint64 `json:"generation"`
	// Epoch is the fencing epoch a write ack was served under (absent means
	// epoch 0, the birth epoch). A jump between two acks tells the client a
	// failover happened in between.
	Epoch uint64 `json:"epoch,omitempty"`
	// Error reports a mid-batch durability fault in the envelope's typed
	// shape, alongside the results that were processed before it.
	Error *api.Error `json:"error,omitempty"`
}

// The decoders below fill the scratch's core request from one HTTP request.
// The scratch arrived reset (see getScratch): decode targets hold no
// previous request's data for encoding/json to merge with. What they build
// aliases the scratch and is valid until it is pooled again.

func decodeJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func decodeBatch(sc *batchScratch, r *http.Request) error {
	if err := decodeJSON(r, &sc.req); err != nil {
		return err
	}
	req := &sc.reqs[0]
	req.MinGen = sc.req.MinGeneration
	for i, wc := range sc.req.Commands {
		c, err := wc.Command()
		if err != nil {
			return fmt.Errorf("command %d: %w", i, err)
		}
		req.Cmds = append(req.Cmds, c)
	}
	return nil
}

func decodeCheck(sc *batchScratch, r *http.Request) error {
	if err := decodeJSON(r, &sc.checkReq); err != nil {
		return err
	}
	req := &sc.reqs[0]
	req.Session, req.MinGen = sc.checkReq.Session, sc.checkReq.MinGeneration
	for _, q := range sc.checkReq.Checks {
		req.Checks = append(req.Checks, service.Check(q))
	}
	return nil
}

// decodeSession serves all three session ops: create and update carry a
// SessionRequest body, update and delete a {sid} path value.
func decodeSession(sc *batchScratch, r *http.Request) error {
	req := &sc.reqs[0]
	if sid := r.PathValue("sid"); sid != "" {
		var err error
		if req.Session, err = strconv.ParseUint(sid, 10, 64); err != nil {
			return fmt.Errorf("bad session id %q", sid)
		}
	}
	if r.Method == http.MethodDelete {
		return nil
	}
	var body SessionRequest
	if err := decodeJSON(r, &body); err != nil {
		return err
	}
	// A create's initial role set travels as "activate", like an update's.
	req.User, req.Roles, req.MinGen = body.User, body.Activate, body.MinGeneration
	req.Activate, req.Deactivate = body.Activate, body.Deactivate
	return nil
}

func decodeExplain(sc *batchScratch, r *http.Request) error {
	var body ExplainRequest
	if err := decodeJSON(r, &body); err != nil {
		return err
	}
	c, err := body.Command.Command()
	if err != nil {
		return err
	}
	req := &sc.reqs[0]
	req.Cmds, req.MinGen = append(req.Cmds, c), body.MinGeneration
	return nil
}

// decodeAudit reads the ?after=N&limit=K page (default: from the start, 256).
func decodeAudit(sc *batchScratch, r *http.Request) error {
	req, q := &sc.reqs[0], r.URL.Query()
	req.Limit = 256
	if v := q.Get("after"); v != "" {
		var err error
		if req.After, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("bad after %q", v)
		}
	}
	if v := q.Get("limit"); v != "" {
		var err error
		if req.Limit, err = strconv.Atoi(v); err != nil || req.Limit <= 0 {
			return fmt.Errorf("bad limit %q", v)
		}
	}
	return nil
}

// decodePolicy parses an RPL upload: a policy, and nothing to run.
func decodePolicy(sc *batchScratch, r *http.Request) error {
	src, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	doc, err := parser.Parse(string(src))
	if err != nil {
		return fmt.Errorf("parse policy: %w", err)
	}
	if len(doc.Queue) > 0 || len(doc.Checks) > 0 {
		return errors.New("policy upload must not contain do/expect statements")
	}
	sc.reqs[0].Policy = doc.Policy
	return nil
}

// serveOp is the handler of the ten core ops: decode one request, cross the
// core, encode its answer. A write asks the write gate first — a follower
// redirects without ever reading the body.
func (s *Server) serveOp(op service.Op, decode func(*batchScratch, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if op.Class() == admission.Write && !s.gateWrite(w, r) {
			return
		}
		sc := getScratch()
		defer putScratch(sc)
		req := &sc.reqs[0]
		var err error
		if req.DeadlineMS, err = requestDeadline(r); err == nil {
			err = decode(sc, r)
		}
		if err != nil {
			httpError(w, api.CodeBadRequest, err)
			return
		}
		// HTTP always renders justifications.
		req.Op, req.Tenant, req.Flags = op, r.PathValue("tenant"), service.FlagJustify
		s.core.Do(r.Context(), sc.reqs[:], sc.resps[:], &sc.core)
		s.writeResult(w, op, sc)
	}
}

// writeResult encodes the core's answer to the scratch's request.
func (s *Server) writeResult(w http.ResponseWriter, op service.Op, sc *batchScratch) {
	resp := &sc.resps[0]
	if resp.Err != nil && resp.Steps == nil {
		writeError(w, op.Class(), resp.Err)
		return
	}
	body := batchResponse{Generation: resp.Generation}
	status := http.StatusOK
	switch op {
	case service.OpAuthorize:
		for _, res := range resp.Authz {
			sc.authOut = append(sc.authOut, AuthorizeResult{Allowed: res.OK, Justification: justification(res.Justification)})
		}
		body.Results = sc.authOut
	case service.OpSubmit:
		for _, res := range resp.Steps {
			sc.subOut = append(sc.subOut, SubmitResult{Outcome: res.Outcome.WireName(), Justification: justification(res.Justification)})
		}
		// Write acks carry the fencing epoch (header + body): the token a
		// client or proxy uses to notice a failover happened between its
		// writes.
		body.Results, body.Epoch = sc.subOut, resp.Epoch
		w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(resp.Epoch, 10))
		if resp.Err != nil {
			// Commit-hook (durability) failure mid-batch: report what was
			// processed together with the fault.
			body.Error, status = resp.Err, statusFor(resp.Err.Code, admission.Write)
		}
	case service.OpCheck:
		for _, ok := range resp.Allowed {
			sc.checkOut = append(sc.checkOut, CheckResult{Allowed: ok})
		}
		body.Results = sc.checkOut
	case service.OpSessionCreate, service.OpSessionUpdate:
		body.Results = SessionResponse{Session: resp.Session, User: resp.User, Roles: resp.Roles}
	case service.OpSessionDelete:
		w.WriteHeader(http.StatusNoContent)
		return
	case service.OpExplain:
		writeJSON(w, http.StatusOK, map[string]any{"explanation": resp.Text, "generation": resp.Generation})
		return
	case service.OpAudit:
		out := auditResponse{Records: resp.Records, Total: resp.Total, Generation: resp.Generation}
		if out.Records == nil {
			out.Records = []storage.Record{}
		}
		writeJSON(w, http.StatusOK, out)
		return
	case service.OpInstallPolicy:
		w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(resp.Epoch, 10))
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, status, body)
}

func justification(p model.Privilege) string {
	if p == nil {
		return ""
	}
	return p.String()
}

// auditResponse is the audit endpoint's envelope: the retained records, the
// total ever seen (a larger total means the in-memory window trimmed older
// entries), and the generation served at.
type auditResponse struct {
	Records    []storage.Record `json:"records"`
	Total      uint64           `json:"total"`
	Generation uint64           `json:"generation"`
}

// statsResponse wraps tenant stats with the follower's replication
// telemetry and this node's session-table counters; the embedding keeps the
// primary's wire shape unchanged.
type statsResponse struct {
	tenant.Stats
	Replication *replication.LagStats `json:"replication,omitempty"`
	Sessions    *session.Stats        `json:"sessions,omitempty"`
	// Role and Epoch locate this node in the failover topology.
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Overload is the node's shed accounting — served even (especially)
	// while saturated, since /stats is never admission-gated.
	Overload service.Overload `json:"overload"`
}

// overloadStats is the core's overload telemetry plus this transport's own
// fast-fails (forwards refused on an open peer breaker).
func (s *Server) overloadStats() service.Overload {
	o := s.core.Overload()
	o.BreakerFastFail += s.peerFastFail.Load()
	return o
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if e := s.core.EnsureReplica(name); e != nil {
		writeError(w, admission.Read, e)
		return
	}
	st, err := s.reg.Stats(name)
	if err != nil {
		writeError(w, admission.Read, s.core.Fail(admission.Read, err))
		return
	}
	out := statsResponse{Stats: st, Role: s.Role(), Epoch: s.Epoch(), Overload: s.overloadStats()}
	if f := s.core.Follower(); f != nil {
		if lag, ok := f.LagStats(name); ok {
			out.Replication = &lag
		}
	}
	if tbl, ok := s.core.Sessions().Peek(name); ok {
		sst := tbl.Stats()
		out.Sessions = &sst
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"role":     s.Role(),
		"epoch":    s.Epoch(),
		"uptime":   time.Since(s.start).Round(time.Millisecond).String(),
		"resident": s.reg.Resident(),
		"sessions": s.core.Sessions().Sessions(),
		"overload": s.overloadStats(),
	}
	if f := s.core.Follower(); f != nil {
		body["upstream"] = f.Upstream()
	}
	if s.nodeID != "" {
		body["node_id"] = s.nodeID
	}
	if m := s.placementMap(); m != nil {
		body["placement_version"] = m.Version
	}
	writeJSON(w, http.StatusOK, body)
}

// AdminRequest is the body of the role-transition control endpoints
// (/v1/cluster/promote, /v1/cluster/repoint).
type AdminRequest struct {
	// Upstream is the new primary's base URL (repoint only).
	Upstream string `json:"upstream,omitempty"`
	// IfEpoch, when non-zero, makes the transition conditional: it proceeds
	// only while the node's epoch is exactly this value — the CAS guard that
	// keeps two racing operators (or probe loops) from double-promoting.
	IfEpoch uint64 `json:"if_epoch,omitempty"`
}

// adminResponse reports the node's role and epoch after a transition.
type adminResponse struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Upstream string `json:"upstream,omitempty"`
}

// transition answers a role-transition attempt: CAS misses and refused
// demotions are conflicts, anything else the node's fault.
func (s *Server) transition(w http.ResponseWriter, err error, out adminResponse) {
	switch {
	case err == nil:
		out.Role = s.Role()
		writeJSON(w, http.StatusOK, out)
	case errors.Is(err, service.ErrStaleEpoch), errors.Is(err, service.ErrPrimaryRepoint):
		httpError(w, api.CodeConflict, err)
	default:
		httpError(w, api.CodeInternal, err)
	}
}

// decodeAdmin decodes an AdminRequest body (an empty body is a zero
// request — unconditional promote).
func decodeAdmin(sc *batchScratch, w http.ResponseWriter, r *http.Request) bool {
	if err := json.NewDecoder(r.Body).Decode(&sc.adminReq); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, api.CodeBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if !decodeAdmin(sc, w, r) {
		return
	}
	epoch, err := s.Promote(sc.adminReq.IfEpoch)
	s.transition(w, err, adminResponse{Epoch: epoch})
}

func (s *Server) handleRepoint(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if !decodeAdmin(sc, w, r) {
		return
	}
	upstream := strings.TrimRight(sc.adminReq.Upstream, "/")
	if upstream == "" {
		httpError(w, api.CodeBadRequest, fmt.Errorf("repoint needs an upstream"))
		return
	}
	err := s.Repoint(upstream, sc.adminReq.IfEpoch)
	s.transition(w, err, adminResponse{Epoch: s.Epoch(), Upstream: upstream})
}
