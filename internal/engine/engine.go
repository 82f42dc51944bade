// Package engine provides a mutation-aware, concurrency-safe authorization
// engine over an administrative RBAC policy: unbounded concurrent readers
// evaluate Authorize / Weaker / HeldStronger queries lock-free against an
// immutable Snapshot, while a single writer applies grant/revoke transitions
// and publishes new snapshots behind an atomic pointer.
//
// The design is copy-on-write at replica granularity with RCU-style
// reclamation: the engine keeps a small set of policy replicas, exactly one
// of which is published at a time. A mutation is applied to a quiescent
// spare replica (first catching it up on the mutations it missed, replayed
// from a bounded log), which is then published with one atomic store. The
// previous replica becomes the next spare once its readers drain; a replica
// is only ever mutated when its reader count is zero. Decider caches attached
// to a replica survive publication cycles and refresh incrementally (see
// internal/core), so a grant costs O(delta), not a closure rebuild.
//
// Both sides of the engine batch: SubmitBatch applies a whole command queue
// under one writer-lock acquisition and publishes at most one snapshot, and
// Snapshot.AuthorizeBatchInto decides many queries with one borrowed decider.
// Durability hooks in through SetCommitHook — a WAL record staged before a
// state change becomes visible — plus SetCommitFlush, the group-commit seam
// that lands every staged record of a submission with one write and one
// fsync before the snapshot publishes (see storage.OpenEngine;
// SubmitReplicated publishes after the write and leaves the fsync to its
// caller); NewAt restarts an engine at the generation a store recovered to.
//
// See README.md in this package for the invalidation rules: what survives a
// mutation and what does not.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/decision"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// Mode selects the authorization regime snapshots decide under.
type Mode uint8

const (
	// Strict authorizes by the literal Definition 5 check.
	Strict Mode = iota
	// Refined additionally grants every privilege weaker (Ãφ) than a held
	// one, per §4.1.
	Refined
)

// String names the mode.
func (m Mode) String() string {
	if m == Refined {
		return "refined"
	}
	return "strict"
}

// maxEngineLog bounds the engine's replay log; when exceeded the oldest half
// is dropped and replicas that were behind the dropped window resynchronise
// by cloning the current state.
const maxEngineLog = 4096

// deciderRing bounds the pre-bound deciders a replica keeps. Unlike a
// sync.Pool, ring deciders are never reclaimed by the GC, so the warmth they
// accumulate (interned terms, memo entries) survives for the replica's whole
// lifetime.
const deciderRing = 16

// replica is one materialisation of the policy state. Invariant: a replica
// is mutated only while unpublished and with zero readers.
type replica struct {
	pol  *policy.Policy
	auth command.Authorizer // write-path authorizer, built on first write (see authorizer)
	pos  int                // engine log position pol reflects
	refs atomic.Int64

	// deciders are the replica's pre-bound read deciders: a fixed ring of
	// lazily-built *core.Decider claimed with one CAS on the claimed bitmask.
	// Slots are atomic pointers because a claimer initialising its slot races
	// with other goroutines scanning the ring in release.
	deciders [deciderRing]atomic.Pointer[core.Decider]
	claimed  atomic.Uint64
	ringLen  int
	// overflow serves readers beyond the ring (oversubscription); entries
	// are bound to pol like ring deciders.
	overflow *sync.Pool
}

func newReplica(p *policy.Policy, mode Mode, pos int) *replica {
	r := &replica{}
	r.rebind(p, mode, pos)
	return r
}

// rebind points the replica at a fresh policy materialisation, discarding
// decider caches bound to the old one. Only called on quiescent replicas.
func (r *replica) rebind(p *policy.Policy, mode Mode, pos int) {
	r.pol = p
	r.pos = pos
	r.auth = nil
	n := runtime.GOMAXPROCS(0)
	if n > deciderRing {
		n = deciderRing
	}
	if n < 1 {
		n = 1
	}
	r.ringLen = n
	for i := range r.deciders {
		r.deciders[i].Store(nil)
	}
	r.claimed.Store(0)
	r.overflow = &sync.Pool{New: func() any { return core.NewDecider(p) }}
}

// authorizer returns the replica's write-path authorizer, building it on the
// first write: a replica that only ever serves reads (a cold tenant opened
// for one batch and evicted) builds one closure, its reading decider's. The
// authorizer's decider also fills ring slot 0 when that is still empty, so
// the reads that follow the publication start warm instead of building
// another. The two users never overlap: the writer runs only on an
// unpublished replica with zero readers, and readers claim only while they
// hold a reference.
func (r *replica) authorizer(mode Mode) command.Authorizer {
	if r.auth == nil {
		var a interface {
			command.Authorizer
			Decider() *core.Decider
		}
		if mode == Refined {
			a = core.NewRefinedAuthorizer(r.pol)
		} else {
			a = core.NewStrictAuthorizer(r.pol)
		}
		r.auth = a
		r.deciders[0].CompareAndSwap(nil, a.Decider())
	}
	return r.auth
}

// claim returns a decider bound to the replica's policy for exclusive use by
// the caller; pair with release. The fast path is one CAS; ring deciders are
// built lazily on first claim of their slot.
func (r *replica) claim() *core.Decider {
	for {
		m := r.claimed.Load()
		free := ^m & (uint64(1)<<r.ringLen - 1)
		if free == 0 {
			return r.overflow.Get().(*core.Decider)
		}
		i := bits.TrailingZeros64(free)
		if r.claimed.CompareAndSwap(m, m|uint64(1)<<i) {
			if d := r.deciders[i].Load(); d != nil {
				return d
			}
			d := core.NewDecider(r.pol)
			r.deciders[i].Store(d)
			return d
		}
	}
}

// release returns a claimed decider.
func (r *replica) release(d *core.Decider) {
	for i := 0; i < r.ringLen; i++ {
		if r.deciders[i].Load() == d {
			r.claimed.And(^(uint64(1) << i))
			return
		}
	}
	r.overflow.Put(d)
}

// Guard is a write-path veto hook: it runs against the up-to-date pre-state
// under the writer lock, before the Definition 5 step, and a non-nil error
// denies the command without effect (the error is surfaced for audit
// trails). Constraint sets (SSD) hook in here — see constraints.Set.Guard.
type Guard func(pre *policy.Policy, c command.Command) error

// CommitHook is the engine's durability hook: it runs under the writer lock
// after a command has been applied to the pre-publish replica and before the
// new snapshot becomes visible to readers. gen is the generation the commit
// will publish. A non-nil error aborts the commit — the mutation is rolled
// back, no snapshot is published, and the error is surfaced from Submit — so
// a state change is never observable unless its hook (e.g. a WAL append)
// succeeded first: write-ahead semantics at the engine boundary.
type CommitHook func(gen uint64, res command.StepResult) error

// Engine owns the policy state and coordinates one writer with any number of
// lock-free readers.
type Engine struct {
	mu   sync.Mutex // serialises writers
	mode Mode
	cur  atomic.Pointer[Snapshot]

	// log holds the applied mutations; log[i] moved the engine generation
	// from logBase+i to logBase+i+1. Replicas catch up by replaying their
	// suffix.
	log      []command.Command
	logBase  int
	replicas []*replica
	hook     CommitHook
	flush    func(sync bool) error

	// interner assigns fingerprints to commands at the read boundary; it is
	// shared by every replica and survives publication cycles. Each interned
	// command carries its cached verdict (FPInfo.Verdict), consulted before
	// the decision kernel runs when cached is set.
	interner *command.Interner
	cached   bool
	// posFloor / negFloor are the verdict validity watermarks (see package
	// decision): writer-owned, captured into each published Snapshot.
	posFloor, negFloor uint64

	// published is the generation broadcast: a channel closed (and replaced)
	// on every snapshot publication, so WaitGeneration blocks without
	// polling. Swapped under the writer lock, loaded lock-free by waiters.
	published atomic.Pointer[chan struct{}]
	// retired marks an engine that was replaced (a registry installed a
	// policy or a replica snapshot over it): it will never publish again, so
	// generation waiters return instead of sleeping out their timeout. The
	// owner re-resolves the successor engine (see tenant.WaitGenerationCtx).
	retired atomic.Bool

	hits, misses, stores atomic.Uint64 // verdict store counters
}

// New builds an engine, taking ownership of the policy: the caller must not
// mutate p afterwards.
func New(p *policy.Policy, mode Mode) *Engine {
	return NewAt(p, mode, 0, true)
}

// NewAt builds an engine whose state starts at a prior generation — the
// recovery constructor. A durable store that replayed its WAL into p hands
// the engine the policy together with the sequence number of the last
// replayed record, so generations keep counting from where the crashed
// process left off (see storage.OpenEngine). cached switches the verdict
// store on: every interned command then keeps its last verdict.
func NewAt(p *policy.Policy, mode Mode, gen uint64, cached bool) *Engine {
	e := &Engine{
		mode:     mode,
		logBase:  int(gen),
		interner: command.NewInterner(),
		cached:   cached,
		posFloor: gen,
		negFloor: gen,
	}
	ch := make(chan struct{})
	e.published.Store(&ch)
	r := newReplica(p, mode, int(gen))
	e.replicas = []*replica{r}
	e.cur.Store(e.snapshotOf(r, gen))
	return e
}

// snapshotOf builds a Snapshot over r at generation gen, capturing the
// validity floors. Callers publishing it must hold the writer lock (or be
// constructing the engine).
func (e *Engine) snapshotOf(r *replica, gen uint64) *Snapshot {
	return &Snapshot{
		e:        e,
		r:        r,
		gen:      gen,
		posFloor: e.posFloor,
		negFloor: e.negFloor,
	}
}

// CacheStats reports the verdict store's counters. Slots is the number of
// interned commands, each holding one verdict (0 with the store off), and
// nothing is ever evicted.
func (e *Engine) CacheStats() decision.Stats {
	st := decision.Stats{Hits: e.hits.Load(), Misses: e.misses.Load(), Stores: e.stores.Load()}
	if e.cached {
		st.Slots, _ = e.interner.Len()
	}
	return st
}

// SetCommitHook installs the durability hook invoked for every applied
// (state-changing) command. Pass nil to clear. The hook must not call back
// into the engine's write path (it runs under the writer lock).
func (e *Engine) SetCommitHook(fn CommitHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hook = fn
}

// SetCommitFlush installs the group half of the durability contract: it runs
// once per submission (Submit, SubmitGuarded or SubmitBatch), after every
// applied command's CommitHook and before the covering snapshot publishes.
// A storage layer stages per-command records in the CommitHook and lands them
// all here with one file write and one fsync — group commit. A non-nil error
// rolls back every applied-but-unflushed command of the submission: nothing
// publishes, their results report Denied with a *CommitError, and the engine
// state is exactly what the last successful flush covered, so an acknowledged
// change always has its records durable even when many submitters share the
// flush. sync is false only under SubmitReplicated, which asks for the write
// alone. Pass nil to clear (the per-command hook then carries durability
// alone). Like the CommitHook, it must not call back into the write path.
func (e *Engine) SetCommitFlush(fn func(sync bool) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush = fn
}

// Mode returns the engine's authorization mode.
func (e *Engine) Mode() Mode { return e.mode }

// Generation returns the number of applied (state-changing) transitions.
func (e *Engine) Generation() uint64 {
	return e.cur.Load().gen
}

// Snapshot returns the current published snapshot with a reader reference
// held. The caller must Close it; until then the snapshot is immutable and
// all its methods are safe for concurrent use with the writer and with other
// readers.
func (e *Engine) Snapshot() *Snapshot {
	for {
		s := e.cur.Load()
		s.r.refs.Add(1)
		if e.cur.Load() == s {
			return s
		}
		// The snapshot was republished between the load and the reference;
		// back off so the writer can reclaim the replica, and retry.
		s.r.refs.Add(-1)
	}
}

// Submit executes one administrative command through the transition function
// (Definition 5) against the current state, publishing a new snapshot when
// the policy changed.
func (e *Engine) Submit(c command.Command) command.StepResult {
	res, _ := e.SubmitGuarded(c, nil)
	return res
}

// SubmitGuarded is Submit with a veto hook: guard runs against the
// up-to-date pre-state under the writer lock, and a non-nil error denies the
// command without effect (the error is returned for audit trails).
// Constraint sets (SSD) hook in here.
func (e *Engine) SubmitGuarded(c command.Command, guard Guard) (command.StepResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	cur := e.cur.Load()
	next := e.writable(cur)
	e.catchUp(next)
	posFloor0, negFloor0 := e.posFloor, e.negFloor
	res, err := e.stepLocked(next, c, guard)
	if err != nil || res.Outcome != command.Applied {
		// State unchanged: keep the current snapshot published; next stays a
		// caught-up spare.
		return res, err
	}
	if e.flush != nil {
		if ferr := e.flush(true); ferr != nil {
			e.rollbackLocked(next, []command.Command{c}, posFloor0, negFloor0)
			return command.StepResult{Cmd: c, Outcome: command.Denied}, &CommitError{Err: ferr}
		}
	}
	e.publishLocked(next)
	return res, nil
}

// SubmitBatch executes the commands in order through the transition function,
// each authorized against the state left by its predecessors, and publishes
// at most one new snapshot covering the whole batch — readers never observe a
// partially applied batch, and one publication amortises replica ping-pong
// across many writes. A commit-hook failure stops the batch: the results
// processed so far (the failed command reported as Denied) are returned
// together with the hook error, and the applied prefix is flushed and
// published. A commit-flush failure is total: every applied command of the
// batch rolls back (reported Denied), nothing publishes — no waiter in a
// commit group is ever acknowledged without the covering fsync.
func (e *Engine) SubmitBatch(cmds []command.Command, guard Guard) ([]command.StepResult, error) {
	return e.submitBatch(cmds, guard, true)
}

// SubmitReplicated is SubmitBatch for commands a primary already made durable
// (see tenant.ApplyReplicated): the commit flush is asked to land the records
// without syncing them, so the snapshot publishes one write(2) after the
// batch and the caller owes the covering sync before it reports the position
// as its own. Land failures roll back exactly as in SubmitBatch; once this
// returns nil the batch is visible and cannot be rolled back.
func (e *Engine) SubmitReplicated(cmds []command.Command) ([]command.StepResult, error) {
	return e.submitBatch(cmds, nil, false)
}

func (e *Engine) submitBatch(cmds []command.Command, guard Guard, sync bool) ([]command.StepResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	cur := e.cur.Load()
	next := e.writable(cur)
	e.catchUp(next)
	posFloor0, negFloor0 := e.posFloor, e.negFloor
	out := make([]command.StepResult, 0, len(cmds))
	var applied []command.Command
	var hookErr error
	for _, c := range cmds {
		res, err := e.stepLocked(next, c, guard)
		out = append(out, res)
		if res.Outcome == command.Applied {
			applied = append(applied, c)
		}
		// A guard veto denies one command and the batch continues; a
		// commit-hook failure means durability is gone and the batch stops.
		if _, fatal := err.(*CommitError); fatal {
			hookErr = err
			break
		}
	}
	if len(applied) == 0 {
		return out, hookErr
	}
	if e.flush != nil {
		if ferr := e.flush(sync); ferr != nil {
			e.rollbackLocked(next, applied, posFloor0, negFloor0)
			for i := range out {
				if out[i].Outcome == command.Applied {
					out[i] = command.StepResult{Cmd: out[i].Cmd, Outcome: command.Denied}
				}
			}
			return out, &CommitError{Err: ferr}
		}
	}
	e.publishLocked(next)
	return out, hookErr
}

// rollbackLocked undoes applied-but-unpublished commands after a failed
// commit flush: the inverse edge changes (applied in reverse order) restore
// the pre-submission edges on the unpublished replica, the engine log and
// position rewind to the published state (trimLog keeps every entry past
// it), and the cache validity floors return to their captured values —
// nothing was published, so no snapshot ever observed the advance.
func (e *Engine) rollbackLocked(next *replica, applied []command.Command, posFloor0, negFloor0 uint64) {
	for i := len(applied) - 1; i >= 0; i-- {
		command.Apply(next.pol, inverse(applied[i]))
	}
	next.pos -= len(applied)
	e.log = e.log[:len(e.log)-len(applied)]
	if next.pol.Graph().NumVertices() != e.cur.Load().r.pol.Graph().NumVertices() {
		e.resyncLocked(next)
	}
	e.posFloor, e.negFloor = posFloor0, negFloor0
}

// resyncLocked rebinds r to a clone of the published policy and replays the
// log after it. An undone grant leaves behind the vertices it introduced
// (RemoveEdge never removes one), and every replica of an engine must give a
// vertex the same id: interned commands share their vertex resolutions
// across replicas (command.FPInfo).
func (e *Engine) resyncLocked(r *replica) {
	pub := e.cur.Load().r
	r.rebind(pub.pol.Clone(), e.mode, pub.pos)
	e.catchUp(r)
}

// publishLocked makes next the published replica and wakes generation
// waiters. Caller holds the writer lock.
func (e *Engine) publishLocked(next *replica) {
	e.cur.Store(e.snapshotOf(next, uint64(next.pos)))
	ch := make(chan struct{})
	old := e.published.Swap(&ch)
	close(*old)
}

// WaitGeneration blocks until the engine's generation reaches min or the
// timeout elapses, returning the generation observed last and whether it
// satisfies min. A zero or negative timeout polls once without blocking.
// This is the primitive behind read-your-writes generation tokens: a reader
// holding a write's (tenant, generation) token waits here before taking a
// snapshot — once a generation is published, every later Snapshot() observes
// a generation at least as large.
func (e *Engine) WaitGeneration(min uint64, timeout time.Duration) (uint64, bool) {
	return e.WaitGenerationCtx(context.Background(), min, timeout)
}

// WaitGenerationCtx is WaitGeneration bounded additionally by ctx, so a
// server can abandon the wait the moment its client disconnects (a
// replication long-poll must not hold resources for a peer that is gone).
// It also returns early when the engine is retired (see Retire).
func (e *Engine) WaitGenerationCtx(ctx context.Context, min uint64, timeout time.Duration) (uint64, bool) {
	gen := e.Generation()
	if gen >= min || timeout <= 0 {
		return gen, gen >= min
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := *e.published.Load()
		// Re-check after loading the channel: a publication between the
		// generation check and the load would otherwise be missed (its close
		// hit the previous channel).
		if gen = e.Generation(); gen >= min {
			return gen, true
		}
		if e.retired.Load() {
			return gen, false
		}
		select {
		case <-ch:
		case <-deadline.C:
			gen = e.Generation()
			return gen, gen >= min
		case <-ctx.Done():
			gen = e.Generation()
			return gen, gen >= min
		}
	}
}

// Retire marks the engine as replaced and wakes every generation waiter:
// this engine will never publish again, so blocked waiters must re-resolve
// whatever superseded it rather than sleep out their timeout. Reads against
// already-acquired snapshots stay valid.
func (e *Engine) Retire() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.retired.Store(true)
	ch := make(chan struct{})
	old := e.published.Swap(&ch)
	close(*old)
}

// CommitError wraps a commit-hook failure so callers can distinguish a
// durability fault from an authorization denial.
type CommitError struct{ Err error }

func (e *CommitError) Error() string { return "engine: commit hook: " + e.Err.Error() }

// Unwrap exposes the underlying hook error.
func (e *CommitError) Unwrap() error { return e.Err }

// stepLocked runs one command against the caught-up spare under the writer
// lock: guard veto, Definition 5 step, then the commit hook. An applied
// command whose hook fails is rolled back (the inverse edge change restores
// the pre-command policy) and reported as Denied with a *CommitError.
func (e *Engine) stepLocked(next *replica, c command.Command, guard Guard) (command.StepResult, error) {
	if guard != nil {
		if err := guard(next.pol, c); err != nil {
			return command.StepResult{Cmd: c, Outcome: command.Denied}, err
		}
	}
	nv := next.pol.Graph().NumVertices()
	res := command.Step(next.pol, c, next.authorizer(e.mode))
	if res.Outcome != command.Applied {
		return res, nil
	}
	if e.hook != nil {
		if err := e.hook(uint64(next.pos+1), res); err != nil {
			// Undo the edge change: Step reported Applied, so the grant added
			// an absent edge (undo = remove) or the revoke removed a present
			// one (undo = add). The replica is unpublished, so the transient
			// state was never visible to readers.
			command.Apply(next.pol, inverse(c))
			if next.pol.Graph().NumVertices() != nv {
				e.resyncLocked(next)
			}
			return command.StepResult{Cmd: c, Outcome: command.Denied}, &CommitError{Err: err}
		}
	}
	e.log = append(e.log, c)
	e.trimLog()
	next.pos++
	// Advance the decision-cache validity floors (see package decision): a
	// grant is additive — Ãφ and Definition 5 reachability are monotone, so
	// allowed verdicts survive and only denials can flip; a revoke shrinks
	// the policy, dropping everything.
	if c.Op == model.OpRevoke {
		e.posFloor = uint64(next.pos)
	}
	e.negFloor = uint64(next.pos)
	return res, nil
}

// inverse returns the command undoing c's edge change.
func inverse(c command.Command) command.Command {
	op := model.OpRevoke
	if c.Op == model.OpRevoke {
		op = model.OpGrant
	}
	return command.Command{Actor: c.Actor, Op: op, From: c.From, To: c.To}
}

// writable returns a quiescent replica distinct from the published one,
// cloning the current state when every spare is still pinned by readers.
func (e *Engine) writable(cur *Snapshot) *replica {
	for _, r := range e.replicas {
		if r != cur.r && r.refs.Load() == 0 {
			return r
		}
	}
	r := newReplica(cur.r.pol.Clone(), e.mode, cur.r.pos)
	e.replicas = append(e.replicas, r)
	return r
}

// catchUp replays the mutations r missed. A replica behind the trimmed log
// window resynchronises by cloning the published state.
func (e *Engine) catchUp(r *replica) {
	head := e.logBase + len(e.log)
	if r.pos == head {
		return
	}
	if r.pos < e.logBase {
		cur := e.cur.Load().r
		r.rebind(cur.pol.Clone(), e.mode, head)
		return
	}
	for i := r.pos - e.logBase; i < len(e.log); i++ {
		// Replay the effect only: the command was already authorized when it
		// entered the log.
		command.Apply(r.pol, e.log[i])
	}
	r.pos = head
}

// trimLog drops the older half of a full log, but never an entry past the
// published position: a rollback rewinds to it and resyncLocked replays
// from it, so a submission longer than the log keeps its entries until it
// publishes.
func (e *Engine) trimLog() {
	if len(e.log) < maxEngineLog {
		return
	}
	drop := min(len(e.log)/2, int(e.cur.Load().gen)-e.logBase)
	if drop <= 0 {
		return
	}
	e.log = append(e.log[:0], e.log[drop:]...)
	e.logBase += drop
}

// Snapshot is an immutable view of the policy at one engine generation:
// policy, reachability closure, decider caches and the verdict validity
// floors this generation decides under. All methods are safe
// for concurrent use by multiple goroutines until Close releases the reader
// reference; using a snapshot after Close is a bug.
type Snapshot struct {
	e        *Engine
	r        *replica
	gen      uint64
	posFloor uint64
	negFloor uint64
}

// Close releases the reader reference, allowing the writer to recycle the
// underlying replica.
func (s *Snapshot) Close() { s.r.refs.Add(-1) }

// Generation identifies the engine state the snapshot reflects. Generations
// are monotone: a snapshot acquired later never observes a smaller one.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Policy exposes the snapshot's policy for read-only use. Mutating it is a
// bug (it would corrupt concurrent readers).
func (s *Snapshot) Policy() *policy.Policy { return s.r.pol }

// ValidityFloors returns the decision-cache validity watermarks this
// snapshot decides under (see package decision): pos is the oldest
// generation whose positive verdicts are still valid at this snapshot, neg
// the oldest whose negative verdicts are. Layers that maintain their own
// generation-tagged caches over snapshots — the session tables in
// internal/session revalidate their compiled role bitsets on these — share
// the engine's invalidation rules through them.
func (s *Snapshot) ValidityFloors() (pos, neg uint64) { return s.posFloor, s.negFloor }

// Authorize reports whether the command is authorized under the engine's
// mode, returning the justifying privilege. It never mutates policy state.
//
// This is the service's per-query kernel: the command is fingerprinted at
// the boundary (allocation-free once interned), its cached verdict is
// consulted under the snapshot's validity floors, and only a miss claims a
// decider and runs the decision procedure. The steady-state path performs
// no allocations.
func (s *Snapshot) Authorize(c command.Command) (model.Privilege, bool) {
	r := s.authorize(c, nil)
	return r.Justification, r.OK
}

// authorize decides one command. d is a pre-claimed decider (batch path) or
// nil, in which case a decider is claimed only if the verdict misses.
func (s *Snapshot) authorize(c command.Command, d *core.Decider) AuthzResult {
	info := s.e.interner.Command(c)
	if info != nil && !info.WellFormed() {
		return AuthzResult{} // ill-formed: denied in every regime
	}
	if info != nil && s.e.cached {
		if just, allowed, ok := info.Verdict.Get(s.gen, s.posFloor, s.negFloor); ok {
			s.e.hits.Add(1)
			if !allowed {
				return AuthzResult{}
			}
			return AuthzResult{Justification: s.e.interner.Privilege(command.PrivID(just)), OK: true}
		}
		s.e.misses.Add(1)
	}
	if d == nil {
		d = s.r.claim()
		defer s.r.release(d)
	}
	if info == nil {
		// First sight, or the interner at capacity: decide uninterned.
		return s.authorizeWith(d, c)
	}
	just, ok := d.AuthorizeFP(s.e.interner, info, s.e.mode == Refined)
	if s.e.cached {
		pid := command.PrivID(0)
		if ok {
			// Both branches are lock-free, allocation-free interner hits in
			// steady state (witnesses and strict justifications recur).
			pid = s.e.interner.PrivilegeID(just)
		}
		// An allowed verdict whose witness could not be interned (full
		// table) is unrepresentable in the word and simply not stored.
		if (!ok || pid != 0) && info.Verdict.Put(s.gen, ok, uint32(pid)) {
			s.e.stores.Add(1)
		}
	}
	return AuthzResult{Justification: just, OK: ok}
}

// AuthzResult is one batched authorization decision.
type AuthzResult struct {
	// Justification is the privilege justifying an allowed command (nil when
	// denied).
	Justification model.Privilege
	// OK reports whether the command is authorized.
	OK bool
}

// AuthorizeBatchInto decides every command against this one snapshot with a
// single claimed decider, amortising snapshot acquisition and decider
// traffic across the batch — the read-side analogue of SubmitBatch. The
// i-th result decides cmds[i]; all decisions are taken at the same
// generation. Results go into out's backing array when its capacity
// suffices, so request loops reuse one buffer across batches; it returns out
// resliced to len(cmds).
func (s *Snapshot) AuthorizeBatchInto(cmds []command.Command, out []AuthzResult) []AuthzResult {
	if cap(out) < len(cmds) {
		out = make([]AuthzResult, len(cmds))
	}
	out = out[:len(cmds)]
	d := s.r.claim()
	defer s.r.release(d)
	for i, c := range cmds {
		out[i] = s.authorize(c, d)
	}
	return out
}

func (s *Snapshot) authorizeWith(d *core.Decider, c command.Command) AuthzResult {
	priv, err := c.Privilege()
	if err != nil {
		return AuthzResult{}
	}
	if s.e.mode == Refined {
		just, ok := d.HeldStronger(c.Actor, priv)
		return AuthzResult{Justification: just, OK: ok}
	}
	if d.Holds(c.Actor, priv) {
		return AuthzResult{Justification: priv, OK: true}
	}
	return AuthzResult{}
}

// ExplainCommand describes why the command would be authorized or denied at
// this snapshot, without executing it. In refined mode the explanation
// includes the held stronger privilege and its Ãφ derivation.
func (s *Snapshot) ExplainCommand(c command.Command) string {
	if err := c.Validate(); err != nil {
		return fmt.Sprintf("ill-formed: %v", err)
	}
	target, _ := c.Privilege()
	if just, ok := (command.Strict{}).Authorize(s.r.pol, c); ok {
		return fmt.Sprintf("authorized (strict): %s reaches %s", c.Actor, just)
	}
	if s.e.mode == Refined {
		if held, ok := s.HeldStronger(c.Actor, target); ok {
			if dv, okd := s.Explain(held, target); okd {
				return fmt.Sprintf("authorized (refined): %s holds %s and\n%s", c.Actor, held, dv)
			}
			return fmt.Sprintf("authorized (refined): %s holds %s Ã %s", c.Actor, held, target)
		}
	}
	return fmt.Sprintf("denied: %s holds no privilege at least as strong as %s", c.Actor, target)
}

// Weaker reports p Ãφ q under the snapshot's policy.
func (s *Snapshot) Weaker(p, q model.Privilege) bool {
	d := s.r.claim()
	defer s.r.release(d)
	return d.Weaker(p, q)
}

// HeldStronger reports whether the user holds a privilege at least as strong
// as q, returning the first witness.
func (s *Snapshot) HeldStronger(user string, q model.Privilege) (model.Privilege, bool) {
	d := s.r.claim()
	defer s.r.release(d)
	return d.HeldStronger(user, q)
}

// Explain decides strong Ãφ weak and produces a derivation witness.
func (s *Snapshot) Explain(strong, weak model.Privilege) (*core.Derivation, bool) {
	d := s.r.claim()
	defer s.r.release(d)
	return d.Explain(strong, weak)
}
