// Package service is the single owner of the data-plane contract: the one
// reference monitor every administrative request crosses, whichever socket
// it arrived on. The HTTP facade (internal/server) and the binary plane
// (internal/wire) are codecs over it — they decode a Request, call Do, and
// encode the Response; neither re-implements a gate.
//
// Do answers ten ops: authorize, check, submit, the three session ops and
// ping on both planes, and explain, audit and policy upload, which only the
// HTTP codec decodes. It runs each request (or merged run of requests)
// through one pipeline, in this order and nowhere else:
//
//	ping            answers ungated, like /healthz
//	shape           an empty batch, a user-less session create, an explain
//	                of other than one command, a non-positive audit limit
//	                or a policy-less upload is bad_request
//	ownership       cluster mode: a non-owner answers misrouted + owner address
//	budget          min(MaxRequestTime, the request's own deadline), fixed
//	                here; only a step that waits arms a timer for it
//	admission       one slot per group, by class; refusals are shed-accounted
//	role            reads: follower ensure-replica; writes: the write gate
//	                (follower ⇒ misrouted + upstream, open breaker ⇒
//	                unavailable, fenced ⇒ fenced + epoch)
//	min_generation  reads wait (bounded) for the token; a budget that expires
//	                inside the wait is deadline, a token out of reach is stale
//	dispatch        the op; adjacent mergeable authorize/submit runs share
//	                one engine pass under one slot
//	errors          Fail maps every registry/session/admission error to a code
//	stamp           generation + epoch on every response
//
// api.Error is the only error type that leaves the package. Owner, GateWrite,
// Admit, EnsureReplica and Fail are exported for what HTTP does before it
// reads a body: route a foreign tenant, redirect a follower's write, admit a
// replication long-poll, serve /stats.
//
// The Core also owns the node's role state machine (role.go): primary,
// follower or fenced, the upstream breaker, the failover probe and the shed
// counters — both planes read one state, and Promote/Repoint/fence are its
// only writers.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/placement"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/session"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
)

// Op identifies one of the ten data-plane operations. The values up to
// OpPing are the binary protocol's opcodes (internal/wire aliases them); the
// rest are HTTP-only.
type Op uint8

const (
	// OpAuthorize: hypothetical batch authorization (read).
	OpAuthorize Op = 1
	// OpCheck: session access checks (read).
	OpCheck Op = 2
	// OpSubmit: durable command batch (write; rides the commit-group queue).
	OpSubmit Op = 3
	// OpSessionCreate: activate a session for a user over roles (read class).
	OpSessionCreate Op = 4
	// OpSessionUpdate: activate/deactivate roles within a session.
	OpSessionUpdate Op = 5
	// OpSessionDelete: drop a session.
	OpSessionDelete Op = 6
	// OpPing: liveness/fence probe; role-independent OK with the node's
	// current epoch and no tenant access.
	OpPing Op = 7
	// OpExplain: why the one command in Cmds would be allowed or denied (read).
	OpExplain Op = 8
	// OpAudit: the audit records after After, at most Limit (read).
	OpAudit Op = 9
	// OpInstallPolicy: provision a tenant with Policy (write).
	OpInstallPolicy Op = 10
)

var opNames = [...]string{OpAuthorize: "authorize", OpCheck: "check", OpSubmit: "submit",
	OpSessionCreate: "session_create", OpSessionUpdate: "session_update", OpSessionDelete: "session_delete", OpPing: "ping",
	OpExplain: "explain", OpAudit: "audit", OpInstallPolicy: "install_policy"}

// String names the op for diagnostics.
func (o Op) String() string {
	if o.Valid() {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Valid reports whether o is a known op.
func (o Op) Valid() bool { return o >= OpAuthorize && o <= OpInstallPolicy }

// Class is the admission class the op contends in: submits and policy
// uploads are writes, everything else reads.
func (o Op) Class() admission.Class {
	if o == OpSubmit || o == OpInstallPolicy {
		return admission.Write
	}
	return admission.Read
}

// FlagJustify asks for authorization justifications in authorize/submit
// results. Rendering one allocates, so the binary plane leaves it off by
// default; the core hands codecs the unrendered privilege either way.
const FlagJustify uint8 = 1 << 0

// Check is one session access-check item.
type Check struct {
	Action string
	Object string
}

// Request is one decoded data-plane request, transport-neutral. Codecs
// decode into pooled Requests (Reset keeps slice capacity); the core never
// retains one past Do.
type Request struct {
	Op Op
	// ID is the transport's correlation token; the core never reads it.
	ID uint64
	// MinGen is the read-your-writes token (0 = none; reads only).
	MinGen uint64
	// DeadlineMS is the client's time budget in milliseconds (0 = none). It
	// tightens, never extends, Config.MaxRequestTime.
	DeadlineMS uint32
	Flags      uint8
	Tenant     string

	// Cmds carries the authorize/submit batch, or the one command explained.
	Cmds []command.Command
	// Session targets check/session_update/session_delete.
	Session uint64
	// Checks carries the check batch.
	Checks []Check
	// User and Roles parameterize session_create.
	User  string
	Roles []string
	// Activate and Deactivate parameterize session_update.
	Activate   []string
	Deactivate []string
	// Policy is the document a policy upload installs.
	Policy *policy.Policy
	// After and Limit page the audit trail by audit index.
	After uint64
	Limit int
}

// Reset clears r for reuse, keeping slice capacity.
func (r *Request) Reset() {
	*r = Request{Cmds: r.Cmds[:0], Checks: r.Checks[:0], Roles: r.Roles[:0],
		Activate: r.Activate[:0], Deactivate: r.Deactivate[:0]}
}

// Response is the core's answer to one Request. On success exactly the body
// of the request's op is set; the result slices alias the Scratch handed to
// Do (a merged run hands each response its sub-slice of one result buffer)
// and are valid until that Scratch's next Do.
type Response struct {
	// Err is nil on success and the typed envelope otherwise.
	Err *api.Error
	// Generation is the engine generation served at — or observed, on a
	// stale/deadline answer and on a mid-batch durability fault.
	Generation uint64
	// Epoch is the answering node's fencing epoch.
	Epoch uint64

	Authz   []engine.AuthzResult // authorize
	Steps   []command.StepResult // submit (partial, beside Err, on a mid-batch fault)
	Allowed []bool               // check
	Session uint64               // session_create / session_update
	User    string
	Roles   []string
	Text    string           // explain
	Records []storage.Record // audit
	Total   uint64           // audit: records ever seen, trimmed ones included
}

// Scratch is the reusable working set of one Do caller: a connection owns
// one, the HTTP facade pools them. The zero value is ready.
type Scratch struct {
	cmds    []command.Command
	authz   []engine.AuthzResult
	allowed []bool
	perms   map[Check]model.Privilege
}

// perm boxes a check's privilege once per distinct (action, object): the
// interface conversion allocates, and a caller's check vocabulary is small.
// Past the cap unseen checks still resolve, just without reuse.
func (sc *Scratch) perm(q Check) model.Privilege {
	p, ok := sc.perms[q]
	if !ok {
		p = model.Perm(q.Action, q.Object)
		if sc.perms == nil {
			sc.perms = make(map[Check]model.Privilege)
		}
		if len(sc.perms) < 1<<12 {
			sc.perms[q] = p
		}
	}
	return p
}

// room returns buf with space for n more elements. When it must grow, the
// responses already answered from the old array keep aliasing it; the
// doubled one serves the rest of this drain and, warm, every later one.
func room[T any](buf []T, n int) []T {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return make([]T, 0, 2*(len(buf)+n))
}

// Config wires a Core into a node (server.Config is this type).
type Config struct {
	// Registry is the tenant registry served (required).
	Registry *tenant.Registry
	// Constraints optionally guards session role activations (DSD). Pass the
	// set tenant.Options.Constraints holds, so the write path (SSD) and the
	// activation path enforce one regime.
	Constraints *constraints.Set
	// Epoch is the node's fencing epoch. Nil gets an in-memory epoch starting
	// at 0; a real cluster passes a durable one (replication.NewEpoch) or a
	// crashed promotion could resurrect a fenced epoch.
	Epoch *replication.Epoch
	// Admission gates requests by class (read / write / replication): a class
	// at its concurrency limit queues up to its queue cap and sheds beyond
	// it. Nil admits everything.
	Admission *admission.Controller
	// Breaker, when non-nil, fast-fails follower writes while the upstream
	// is unreachable; share it with FollowerOptions.Breaker so the pull
	// loop's transport failures trip it. Repoint resets it.
	Breaker *admission.Breaker
	// MinGenWait bounds the min_generation catch-up wait (default 2s).
	MinGenWait time.Duration
	// MaxRequestTime is the budget every data-plane request runs under; a
	// client's deadline tightens, never extends, it. Zero means none.
	// Replication long-polls are exempt: their hold time is the protocol.
	MaxRequestTime time.Duration
	// Placement and NodeID switch on cluster mode: requests for tenants the
	// current map assigns elsewhere answer misrouted. A follower carries its
	// primary's NodeID.
	Placement *placement.Table
	NodeID    string
	// Follower, when non-nil, starts the node in follower role. The core
	// owns its lifecycle from here.
	Follower *replication.Follower
	// FollowerOptions is the template for a follower the node was not built
	// with (a fenced ex-primary repointed at a new upstream).
	FollowerOptions replication.FollowerOptions
	// PromoteOnUpstreamLoss, on a follower, self-promotes the node after its
	// upstream's /healthz fails ProbeThreshold (default 5) consecutive
	// probes, one every ProbeInterval (default 1s). Leave it off when an
	// orchestrator promotes: two followers of one dead primary would both.
	PromoteOnUpstreamLoss bool
	ProbeInterval         time.Duration
	ProbeThreshold        int
}

// Core is the request core plus the role state it gates on.
type Core struct {
	reg            *tenant.Registry
	sessions       *session.Registry
	epoch          *replication.Epoch
	admission      *admission.Controller
	breaker        *admission.Breaker
	minGenWait     time.Duration
	maxRequestTime time.Duration
	placement      *placement.Table
	nodeID         string
	source         *replication.Source

	// Shed accounting: reads refused for capacity, writes (and commit-queue
	// caps) refused for capacity, anything cut by an expired budget, follower
	// writes fast-failed on an open breaker.
	shedRead, shedWrite, shedDeadline, breakerFastFail atomic.Uint64

	// roleMu guards the role state (see role.go).
	roleMu       sync.RWMutex
	follower     *replication.Follower
	fenced       bool
	followerTmpl replication.FollowerOptions

	// stopProbe and probeWG stop and await the failover probe (role.go).
	stopProbe context.CancelFunc
	probeWG   sync.WaitGroup
}

// New builds a Core in the role cfg implies.
func New(cfg Config) *Core {
	if cfg.MinGenWait <= 0 {
		cfg.MinGenWait = 2 * time.Second
	}
	if cfg.Epoch == nil {
		cfg.Epoch = replication.NewEpoch(0, nil)
	}
	c := &Core{
		reg:            cfg.Registry,
		sessions:       session.NewRegistry(session.Options{Constraints: cfg.Constraints}),
		epoch:          cfg.Epoch,
		admission:      cfg.Admission,
		breaker:        cfg.Breaker,
		minGenWait:     cfg.MinGenWait,
		maxRequestTime: cfg.MaxRequestTime,
		placement:      cfg.Placement,
		nodeID:         cfg.NodeID,
		follower:       cfg.Follower,
		followerTmpl:   cfg.FollowerOptions,
	}
	if cfg.Follower != nil {
		c.followerTmpl = cfg.Follower.Options()
	}
	if c.followerTmpl.Epoch == nil {
		c.followerTmpl.Epoch = c.epoch
	}
	if c.followerTmpl.Breaker == nil {
		// A repoint-built follower shares the write gate's breaker, so its
		// pull failures are what trip the fast-fail.
		c.followerTmpl.Breaker = cfg.Breaker
	}
	// The source exists in every role: a non-primary answers its endpoints
	// 421 plus its epoch — the re-point signal a stray puller needs.
	c.source = replication.NewSource(c.reg, replication.SourceOptions{
		Epoch:    c.epoch,
		OnFenced: c.fence,
	})
	c.source.SetServing(c.follower == nil)
	if cfg.Follower != nil && cfg.PromoteOnUpstreamLoss {
		c.startProbe(cfg.ProbeInterval, cfg.ProbeThreshold)
	}
	return c
}

// Sessions is the node-local session registry both planes share.
func (c *Core) Sessions() *session.Registry { return c.sessions }

// Source is the log-shipping source whose serving flag follows the role.
func (c *Core) Source() *replication.Source { return c.source }

// Epoch is the node's fencing epoch handle.
func (c *Core) Epoch() *replication.Epoch { return c.epoch }

// Overload is the node's overload telemetry: admission gauges, the upstream
// breaker, and what the core refused and how.
type Overload struct {
	Admission *admission.Stats        `json:"admission,omitempty"`
	Breaker   *admission.BreakerStats `json:"breaker,omitempty"`
	// ShedRead counts reads shed for capacity, ShedWrite writes,
	// ShedDeadline budget expiries, BreakerFastFail writes refused instead
	// of being pointed at an unreachable node.
	ShedRead        uint64 `json:"shed_read"`
	ShedWrite       uint64 `json:"shed_write"`
	ShedDeadline    uint64 `json:"shed_deadline"`
	BreakerFastFail uint64 `json:"breaker_fast_fail"`
}

// Overload snapshots the telemetry.
func (c *Core) Overload() Overload {
	o := Overload{
		ShedRead:        c.shedRead.Load(),
		ShedWrite:       c.shedWrite.Load(),
		ShedDeadline:    c.shedDeadline.Load(),
		BreakerFastFail: c.breakerFastFail.Load(),
	}
	if c.admission != nil {
		st := c.admission.Stats()
		o.Admission = &st
	}
	if c.breaker != nil {
		st := c.breaker.Stats()
		o.Breaker = &st
	}
	return o
}

// Do answers reqs in order into resps (same length). Adjacent mergeable
// authorize/submit runs collapse into one engine pass under one admission
// slot — the pipelining payoff: a connection's queued requests cost one
// engine walk and one commit-group entry instead of N.
func (c *Core) Do(ctx context.Context, reqs []Request, resps []Response, sc *Scratch) {
	sc.authz, sc.allowed = sc.authz[:0], sc.allowed[:0]
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && mergeable(&reqs[i], &reqs[j]) {
			j++
		}
		c.group(ctx, reqs[i:j], resps[i:j], sc)
		i = j
	}
}

// mergeable reports whether b can join a's engine pass: same batchable op,
// tenant and deadline, a non-empty batch each, and no generation token (a
// token forces an individual wait).
func mergeable(a, b *Request) bool {
	return a.Op == b.Op && (a.Op == OpAuthorize || a.Op == OpSubmit) &&
		a.Tenant == b.Tenant && a.DeadlineMS == b.DeadlineMS &&
		a.MinGen == 0 && b.MinGen == 0 && len(a.Cmds) > 0 && len(b.Cmds) > 0
}

// group runs one merged run (length 1 for everything non-batchable) through
// the pipeline and stamps every response.
func (c *Core) group(ctx context.Context, group []Request, resps []Response, sc *Scratch) {
	for i := range resps {
		resps[i] = Response{}
	}
	e := shape(&group[0])
	if e == nil && group[0].Op != OpPing {
		e = c.gated(ctx, group, resps, sc)
	}
	epoch := c.epoch.Current()
	for i := range resps {
		resps[i].Epoch = epoch
		if e != nil {
			resps[i].Err = e
			if resps[i].Generation == 0 {
				resps[i].Generation = e.Generation
			}
		}
	}
}

// shape rejects what no gate needs to look at.
func shape(req *Request) *api.Error {
	msg := ""
	switch {
	case !req.Op.Valid():
		msg = fmt.Sprintf("unknown op %d", uint8(req.Op))
	case (req.Op == OpAuthorize || req.Op == OpSubmit) && len(req.Cmds) == 0:
		msg = "empty command batch"
	case req.Op == OpCheck && len(req.Checks) == 0:
		msg = "empty check batch"
	case req.Op == OpSessionCreate && req.User == "":
		msg = "session create needs a user"
	case req.Op == OpExplain && len(req.Cmds) != 1:
		msg = "explain needs exactly one command"
	case req.Op == OpAudit && req.Limit <= 0:
		msg = "audit needs a positive limit"
	case req.Op == OpInstallPolicy && req.Policy == nil:
		msg = "policy upload needs a policy"
	default:
		return nil
	}
	return &api.Error{Code: api.CodeBadRequest, Message: msg}
}

// Owner is the placement ownership check: nil when this node owns the
// tenant (or outside cluster mode), misrouted carrying the owner's address
// and the placement version otherwise.
func (c *Core) Owner(name string) *api.Error {
	m := c.placement.Current()
	if m == nil {
		return nil
	}
	owner, ok := m.Owner(name)
	if !ok || owner.ID == c.nodeID {
		return nil
	}
	return &api.Error{
		Code:             api.CodeMisrouted,
		Message:          fmt.Sprintf("tenant %s is owned by node %s under placement version %d", name, owner.ID, m.Version),
		Node:             owner.Addr,
		PlacementVersion: m.Version,
	}
}

// gated runs the gates every tenant-addressed request passes before it may
// touch tenant state — ownership, budget, admission, then role: reads ensure
// the follower's replica and wait for their generation token, writes pass
// the write gate — and dispatches the group under them.
func (c *Core) gated(ctx context.Context, group []Request, resps []Response, sc *Scratch) *api.Error {
	req := &group[0]
	if e := c.Owner(req.Tenant); e != nil {
		return e
	}
	budget := c.maxRequestTime
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; d > 0 && (budget <= 0 || d < budget) {
		budget = d
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	cl := req.Op.Class()
	release, e := c.Admit(ctx, cl, deadline)
	if e != nil {
		return e
	}
	defer release()
	if cl == admission.Write {
		e = c.GateWrite()
	} else if e = c.EnsureReplica(req.Tenant); e == nil {
		e = c.awaitGeneration(ctx, deadline, req.Tenant, req.MinGen)
	}
	if e != nil {
		return e
	}
	return c.dispatch(ctx, deadline, group, resps, sc)
}

// within bounds ctx by a request's deadline (none when zero) for one step
// that can wait; a step that cannot never calls it, and arms no timer.
func within(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}

// Admit acquires one admission slot of class cl within ctx and deadline —
// the node's only Acquire call site (the replication long-polls pass through
// it too, unbudgeted: their hold time is the protocol).
func (c *Core) Admit(ctx context.Context, cl admission.Class, deadline time.Time) (release func(), e *api.Error) {
	release, err := c.admission.AcquireBy(ctx, cl, deadline)
	if err != nil {
		return nil, c.Fail(cl, err)
	}
	return release, nil
}

// awaitGeneration enforces a min_generation token: it waits (bounded by
// MinGenWait and ctx) for the serving replica to reach min — the replica
// never serves a read older than the client's token. A budget that runs out
// inside the wait is overload (or a stalled replica), not staleness, so the
// client retries instead of treating it as a consistency miss.
func (c *Core) awaitGeneration(ctx context.Context, deadline time.Time, name string, min uint64) *api.Error {
	if min == 0 {
		return nil
	}
	ctx, cancel := within(ctx, deadline)
	defer cancel()
	gen, ok, err := c.reg.WaitGenerationCtx(ctx, name, min, c.minGenWait)
	switch {
	case err != nil:
		return c.Fail(admission.Read, err)
	case ok:
		return nil
	case ctx.Err() != nil:
		c.shedDeadline.Add(1)
		return &api.Error{
			Code:          api.CodeDeadline,
			Message:       fmt.Sprintf("deadline expired at generation %d waiting for %d", gen, min),
			Generation:    gen,
			MinGeneration: min,
			RetryAfter:    1,
		}
	}
	return &api.Error{
		Code:          api.CodeStaleGeneration,
		Message:       fmt.Sprintf("replica at generation %d, need %d", gen, min),
		Generation:    gen,
		MinGeneration: min,
	}
}

// Fail maps whatever the registry, the session tables or admission refused
// onto the envelope, accounting sheds as it goes — the one place an error
// becomes a code. cl picks the shed counter.
func (c *Core) Fail(cl admission.Class, err error) *api.Error {
	var e *api.Error
	code, retry := api.CodeInternal, 0
	switch {
	case errors.As(err, &e):
		return e
	case tenant.IsBadName(err):
		code = api.CodeBadRequest
	case tenant.IsNotFound(err), session.IsNoSession(err):
		code = api.CodeNotFound
	case tenant.IsProvisioned(err):
		code = api.CodeConflict
	case errors.Is(err, tenant.ErrConstraint):
		// The policy said no, as a DSD veto of a session activation does.
		code = api.CodeForbidden
	case tenant.IsFenced(err):
		// The tenant's writes are fenced for a migration flip — a short
		// window; the retry lands after the flip and meets the new owner.
		code, retry = api.CodeFenced, 1
	case admission.IsDeadline(err):
		c.shedDeadline.Add(1)
		code, retry = api.CodeDeadline, 1
	case admission.IsOverloaded(err), session.IsTableFull(err):
		if cl == admission.Read {
			c.shedRead.Add(1)
		} else {
			c.shedWrite.Add(1)
		}
		code, retry = api.CodeOverloaded, 1
	}
	return &api.Error{Code: code, Message: err.Error(), RetryAfter: retry}
}

// denial types a session table's refusal: capacity and addressing keep their
// sentinels for Fail; anything else is the policy (role not held, DSD veto)
// saying no.
func denial(err error) error {
	if session.IsTableFull(err) || session.IsNoSession(err) {
		return err
	}
	return &api.Error{Code: api.CodeForbidden, Message: err.Error()}
}

// dispatch executes an admitted group. A non-nil error answers the whole
// group; on success every response carries its body and generation.
func (c *Core) dispatch(ctx context.Context, deadline time.Time, group []Request, resps []Response, sc *Scratch) *api.Error {
	req, resp := &group[0], &resps[0]
	cl := req.Op.Class()
	switch req.Op {
	case OpAuthorize:
		cmds := sc.merge(group)
		sc.authz = room(sc.authz, len(cmds))
		used := len(sc.authz)
		results, gen, err := c.reg.AuthorizeBatchInto(req.Tenant, cmds, sc.authz[used:])
		if err != nil {
			return c.Fail(cl, err)
		}
		sc.authz = sc.authz[:used+len(results)]
		for i := range group {
			n := len(group[i].Cmds)
			resps[i].Authz, resps[i].Generation = results[:n:n], gen
			results = results[n:]
		}
		return nil

	case OpSubmit:
		ctx, cancel := within(ctx, deadline)
		defer cancel()
		results, gen, err := c.reg.SubmitBatchCtx(ctx, req.Tenant, sc.merge(group))
		for i := range resps {
			resps[i].Generation = gen
		}
		if err != nil {
			// With results beside it, err is a commit-hook (durability) fault
			// mid-batch: every caller in the group hears the fault — nothing
			// past it was acknowledged — with what was processed before it.
			if len(group) == 1 && len(results) > 0 {
				resp.Steps = results
			}
			return c.Fail(cl, err)
		}
		for i := range group {
			n := len(group[i].Cmds)
			resps[i].Steps = results[:n:n]
			results = results[n:]
		}
		return nil

	case OpSessionDelete:
		tbl, ok := c.sessions.Peek(req.Tenant)
		if !ok {
			return noSession(req.Session)
		}
		if err := tbl.Drop(req.Session); err != nil {
			return c.Fail(cl, err)
		}
		return nil

	case OpAudit:
		records, total, gen, err := c.reg.Audit(req.Tenant, req.After, req.Limit)
		if err != nil {
			return c.Fail(cl, err)
		}
		resp.Records, resp.Total, resp.Generation = records, total, gen
		return nil

	case OpInstallPolicy:
		if err := c.reg.InstallPolicy(req.Tenant, req.Policy); err != nil {
			return c.Fail(cl, err)
		}
		return nil
	}

	// The remaining ops read one snapshot of the tenant.
	var tbl *session.Table
	if req.Op == OpCheck || req.Op == OpSessionUpdate {
		var ok bool
		if tbl, ok = c.sessions.Peek(req.Tenant); !ok {
			return noSession(req.Session)
		}
	}
	pin, err := c.reg.Pin(req.Tenant)
	if err != nil {
		return c.Fail(cl, err)
	}
	defer pin.Release()
	snap := pin.Snap
	resp.Generation = snap.Generation()
	var sess *session.Session
	switch req.Op {
	case OpExplain:
		resp.Text = snap.ExplainCommand(req.Cmds[0])
		return nil
	case OpCheck:
		sc.allowed = room(sc.allowed, len(req.Checks))
		used := len(sc.allowed)
		for _, q := range req.Checks {
			ok, err := tbl.Check(snap, req.Session, sc.perm(q))
			if err != nil {
				return c.Fail(cl, err)
			}
			sc.allowed = append(sc.allowed, ok)
		}
		resp.Allowed = sc.allowed[used:len(sc.allowed):len(sc.allowed)]
		return nil
	case OpSessionCreate:
		// The table is minted only once the tenant proved to exist.
		sess, err = c.sessions.Table(req.Tenant).Create(snap, req.User, req.Roles)
	case OpSessionUpdate:
		// One atomic role-set change: a rejected update (unknown role, DSD
		// veto, …) leaves the session exactly as it was.
		sess, err = tbl.Update(snap, req.Session, req.Activate, req.Deactivate)
	}
	if err != nil {
		return c.Fail(cl, denial(err))
	}
	resp.Session, resp.User, resp.Roles = sess.ID, sess.User, sess.Roles()
	return nil
}

// merge concatenates a group's batches for one engine pass (a group of one
// passes its own slice through).
func (sc *Scratch) merge(group []Request) []command.Command {
	if len(group) == 1 {
		return group[0].Cmds
	}
	sc.cmds = sc.cmds[:0]
	for i := range group {
		sc.cmds = append(sc.cmds, group[i].Cmds...)
	}
	return sc.cmds
}

func noSession(sid uint64) *api.Error {
	return &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("no session %d (sessions are node-local)", sid)}
}
