// Package tenant serves many isolated policies from one process: a sharded
// registry where each tenant owns a snapshot engine (internal/engine) backed
// by its own WAL+snapshot store (internal/storage). Tenants are addressed by
// name, hashed onto N lock-striped shard maps so unrelated tenants never
// contend on a lock; a tenant is opened lazily — recovered from its on-disk
// snapshot and WAL — on first touch, and idle tenants are compacted and then
// LRU-evicted when a shard exceeds its residency budget, so a registry over
// millions of tenants holds only the working set in memory.
//
// The shard lock covers map/LRU bookkeeping plus the first-touch open of a
// cold tenant (so a tenant recovers exactly once); eviction I/O — budget
// evictions and explicit Evict calls alike, see retire — happens outside it. Once a tenant is resolved, authorization runs lock-free
// against engine snapshots and submissions serialise only against that
// tenant's writer. The batched entry points
// (AuthorizeBatchInto, SubmitBatch) amortise the resolve + snapshot acquisition
// across a whole request, which is what makes one network round-trip cheap
// (see internal/server).
package tenant

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/decision"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
	"adminrefine/internal/storage"
)

// Options configures a Registry.
type Options struct {
	// Dir is the root data directory; tenant t persists under Dir/t.
	Dir string
	// Mode is the authorization regime every tenant engine runs under.
	Mode engine.Mode
	// Shards is the number of lock-striped shard maps (default 8).
	Shards int
	// MaxResident caps resident tenants per shard; exceeding it compacts and
	// evicts the least-recently-used idle tenant (0 = unlimited).
	MaxResident int
	// CompactEvery triggers a compaction after this many WAL records
	// accumulate on a tenant (default 1024; negative disables).
	CompactEvery int
	// Sync fsyncs every WAL append (crash-durable). Concurrent submitters on
	// one tenant share their fsync: the write path coalesces whatever queued
	// while the previous group was flushing into one write + one fsync (group
	// commit), so durable throughput scales with concurrency instead of fsync
	// count. Default off.
	Sync bool
	// OpenFile, when non-nil, opens every tenant's WAL through this hook
	// instead of os.OpenFile — the deterministic fault-injection seam (see
	// internal/fault and storage.Options.OpenFile).
	OpenFile func(path string, flag int, perm os.FileMode) (storage.File, error)
	// CacheSlots < 0 turns each tenant engine's verdict store off; any other
	// value caches every interned command's verdict (see engine.NewAt).
	CacheSlots int
	// Constraints optionally guards every write: administrative commands
	// whose resulting policy would introduce a new SSD violation are denied
	// (and audited with the veto reason), and policy installs — provisioning
	// and bootstrap seeding alike — are refused outright when the policy
	// violates a constraint. Enforcement lives here, on the tenant write
	// path, so every writer (HTTP submit, CLI, bootstrap) passes through the
	// same guard. Replicated applies are exempt: a follower replays the
	// primary's already-guarded history verbatim, because vetoing it locally
	// would fork the replica.
	Constraints *constraints.Set
	// Bootstrap, when non-nil, seeds a tenant that has no durable state yet:
	// it is invoked on first touch of an empty tenant and the returned policy
	// is compacted to disk immediately. Return nil to leave the tenant empty.
	Bootstrap func(name string) *policy.Policy
	// Epoch, when non-nil, reports the node's current fencing epoch (see
	// internal/replication). The registry stamps it onto locally minted WAL
	// records before every write, which is what lets a post-failover primary
	// tell followers whose history is a prefix of its own from ones that
	// forked (see PullWAL). Nil reads as epoch 0 — a never-failed-over
	// cluster where every record agrees by construction.
	Epoch func() uint64
	// MaxQueuedSubmits hard-caps each tenant's commit-group queue: submitters
	// arriving while that many are already queued behind the in-flight group
	// are refused immediately with admission.ErrOverloaded instead of growing
	// the queue without bound (0 = unlimited). This is the write path's
	// backpressure floor — under a sustained overload the queue otherwise
	// absorbs the excess as unbounded latency for every later submitter.
	MaxQueuedSubmits int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 1024
	}
	return o
}

// Registry is a sharded set of resident tenants over one data directory.
// All methods are safe for concurrent use.
type Registry struct {
	opts   Options
	shards []*shard
	// guard is the write-path constraint veto (nil without constraints),
	// shared by every tenant engine.
	guard  engine.Guard
	closed atomic.Bool
}

type shard struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	// lru orders resident tenants, front = most recently used. Element
	// values are *tenant.
	lru *list.List
	// closing holds the names of eviction victims between their unlinking
	// (under mu) and the end of their shutdown (outside it); the channel
	// closes when the directory is safe to reopen.
	closing map[string]chan struct{}
}

// wlock is the tenant writer lock: a one-slot semaphore with mutex-shaped
// methods. Unlike sync.Mutex its acquisition is selectable, which is what
// lets a queued submitter race the lock against its own deadline and the
// group leader's completion signal (see submitGrouped) instead of blocking
// unboundedly once the commit path saturates.
type wlock chan struct{}

func newWlock() wlock   { return make(wlock, 1) }
func (l wlock) Lock()   { l <- struct{}{} }
func (l wlock) Unlock() { <-l }

// tenant is one resident policy: engine + store + bookkeeping.
type tenant struct {
	name string
	// eng is an atomic pointer because InstallPolicy replaces the engine
	// while lock-free readers (Authorize, Stats, …) are loading it.
	eng   atomic.Pointer[engine.Engine]
	store *storage.Store
	elem  *list.Element
	// inuse counts in-flight operations; eviction skips busy tenants.
	inuse atomic.Int64
	// submu serialises submissions and compactions so a compaction always
	// snapshots the WAL head (no record can land between the policy snapshot
	// and the log truncation).
	submu wlock
	// qmu guards queue, the tenant's pending commit group: submitters enqueue
	// under qmu and then contend on submu; whoever wins drains the queue and
	// commits the whole group as one engine batch — one WAL write, one fsync —
	// releasing every drained waiter only after the covering flush. See
	// Registry.submitGrouped.
	qmu        sync.Mutex
	queue      []*submitWaiter
	recovered  storage.Recovery
	authorizes atomic.Uint64
	submits    atomic.Uint64
	// compactErr remembers the last budget-triggered compaction failure (nil
	// once one succeeds). Compaction failures are not submit failures — the
	// WAL already holds every applied record — so they surface via Stats,
	// not the submit path.
	compactErr atomic.Pointer[string]
	// fenced refuses new submissions while a migration flips the tenant to
	// another primary (see Registry.FenceWrites). Checked on entry and again
	// by the commit leader under submu, so once FenceWrites returns no later
	// group can commit.
	fenced atomic.Bool
}

func (t *tenant) engine() *engine.Engine { return t.eng.Load() }

// Stats describes one tenant's current state.
type Stats struct {
	Tenant     string `json:"tenant"`
	Mode       string `json:"mode"`
	Generation uint64 `json:"generation"`
	WALSeq     int    `json:"wal_seq"`
	// SinceCompact is the number of WAL records accumulated since the last
	// compaction.
	SinceCompact int          `json:"since_compact"`
	Policy       policy.Stats `json:"policy"`
	Authorizes   uint64       `json:"authorizes"`
	Submits      uint64       `json:"submits"`
	// Cache reports the tenant engine's verdict-store counters (hits,
	// misses, stores; evictions stays 0) and its interned commands as slots.
	Cache decision.Stats `json:"cache"`
	// Recovered reports what the lazy open found on disk.
	Recovered storage.Recovery `json:"recovered"`
	// LastCompactError is the most recent budget-triggered compaction
	// failure, empty once a compaction succeeds. Failed compactions are
	// retried on later submits and never fail the submit itself (the WAL
	// already holds every applied record).
	LastCompactError string `json:"last_compact_error,omitempty"`
}

// New builds a registry rooted at opts.Dir. Tenants open lazily; New itself
// touches no tenant state.
func New(opts Options) *Registry {
	opts = opts.withDefaults()
	r := &Registry{opts: opts, guard: opts.Constraints.Guard(), shards: make([]*shard, opts.Shards)}
	for i := range r.shards {
		r.shards[i] = &shard{tenants: make(map[string]*tenant), lru: list.New(), closing: make(map[string]chan struct{})}
	}
	return r
}

// Sentinels wrapped into returned errors so transports can map them onto
// status codes without string matching.
var (
	errProvisioned = errors.New("already provisioned")
	// ErrBadName and ErrNotFound are exported so the replication follower
	// can surface name/missing-tenant faults through the same status-code
	// mapping transports use for the registry's own errors.
	ErrBadName  = errors.New("invalid tenant name")
	ErrNotFound = errors.New("no such tenant")
	// ErrFenced refuses a write to a tenant whose ownership is mid-flip to
	// another primary (see Registry.FenceWrites). Transient: clients retry
	// and land on the new owner once placement flips.
	ErrFenced = errors.New("tenant writes fenced for migration")
	// ErrConstraint refuses installing a policy that violates the registry's
	// SSD constraints.
	ErrConstraint = errors.New("policy violates constraint")
)

// IsBadName reports whether err came from an inadmissible tenant name.
func IsBadName(err error) bool { return errors.Is(err, ErrBadName) }

// IsNotFound reports whether err came from a read-only touch of a tenant
// that has no durable state (reads never create tenants; see acquire).
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// IsProvisioned reports whether err came from installing a policy on a
// tenant that already has administrative history.
func IsProvisioned(err error) bool { return errors.Is(err, errProvisioned) }

// IsFenced reports whether err came from a write refused during a migration
// flip window.
func IsFenced(err error) bool { return errors.Is(err, ErrFenced) }

// ValidName reports whether a tenant name is admissible: 1–64 characters
// drawn from [A-Za-z0-9_-], so every name maps to a safe directory name.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) shardOf(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// acquire resolves (lazily opening) the tenant and pins it against eviction.
// Callers must release it. Write entry points pass create=true; read-only
// entry points pass create=false so probing unknown names never mints
// durable on-disk state (they get ErrNotFound instead, unless Bootstrap
// supplies a policy for the name).
func (r *Registry) acquire(name string, create bool) (*tenant, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("tenant: registry closed")
	}
	if !ValidName(name) {
		return nil, fmt.Errorf("tenant %q: %w", name, ErrBadName)
	}
	sh := r.shardOf(name)
	sh.mu.Lock()
	// A name that is mid-shutdown must not be reopened yet: its directory is
	// half-compacted, and recovering from it would serve a generation behind
	// writes already acknowledged. Wait the shutdown out, off the lock.
	for wait := sh.closing[name]; wait != nil; wait = sh.closing[name] {
		sh.mu.Unlock()
		<-wait
		sh.mu.Lock()
	}
	// Re-check under the shard lock: Close sets the flag before sweeping the
	// shards, so an acquire that raced past the first check cannot insert a
	// tenant into a shard Close already swept.
	if r.closed.Load() {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tenant: registry closed")
	}
	t, ok := sh.tenants[name]
	var evicted []*tenant
	if !ok {
		var err error
		t, err = r.open(name, create)
		if err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		sh.tenants[name] = t
		t.elem = sh.lru.PushFront(t)
		evicted = r.evictLocked(sh)
	} else {
		sh.lru.MoveToFront(t.elem)
	}
	t.inuse.Add(1)
	sh.mu.Unlock()
	r.retire(sh, evicted)
	return t, nil
}

// unlinkLocked removes an idle tenant from the shard's map and LRU and marks
// its name closing; the caller retires it after releasing sh.mu.
// Unlinked-with-inuse==0 plus the mark guarantees exclusivity.
func (sh *shard) unlinkLocked(t *tenant) {
	sh.lru.Remove(t.elem)
	delete(sh.tenants, t.name)
	sh.closing[t.name] = make(chan struct{})
}

// retire is the one eviction path: compact-and-close each unlinked tenant
// outside the shard lock (it is disk I/O and must not stall the shard's other
// tenants), then clear its closing mark.
func (r *Registry) retire(sh *shard, victims []*tenant) {
	for _, v := range victims {
		v.shutdown()
		sh.mu.Lock()
		close(sh.closing[v.name])
		delete(sh.closing, v.name)
		sh.mu.Unlock()
	}
}

func (t *tenant) release() { t.inuse.Add(-1) }

// open recovers a tenant from its directory (first touch), seeding it via
// Bootstrap when the name has no durable state yet. With create=false, a
// name with neither on-disk state nor a Bootstrap policy is not found.
func (r *Registry) open(name string, create bool) (*tenant, error) {
	dir := filepath.Join(r.opts.Dir, name)
	var seed *policy.Policy
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if r.opts.Bootstrap != nil {
			seed = r.opts.Bootstrap(name)
		}
		if seed == nil && !create {
			return nil, fmt.Errorf("tenant %s: %w", name, ErrNotFound)
		}
	}
	st, pol, rec, err := storage.Open(dir, storage.Options{Sync: r.opts.Sync, OpenFile: r.opts.OpenFile})
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	if seed != nil && !rec.SnapshotLoaded && rec.Records == 0 {
		// Seed before the engine exists: one engine per open.
		err := r.checkInstall(seed)
		if err == nil {
			err = st.CompactAt(seed, 0, r.epochNow(), false)
		}
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("tenant %s: bootstrap: %w", name, err)
		}
		pol = seed
	}
	t := &tenant{name: name, store: st, recovered: rec, submu: newWlock()}
	t.eng.Store(st.NewEngine(pol, r.opts.Mode, r.opts.CacheSlots >= 0))
	return t, nil
}

// epochNow reports the node's current fencing epoch (0 without an epoch
// source).
func (r *Registry) epochNow() uint64 {
	if r.opts.Epoch == nil {
		return 0
	}
	return r.opts.Epoch()
}

// stampEpoch syncs the tenant store's record-stamp epoch with the node
// epoch before a local write — after a promotion bumps the node epoch, the
// next write on each tenant starts the tenant's new-epoch history. Caller
// holds t.submu.
func (r *Registry) stampEpoch(t *tenant) {
	if r.opts.Epoch != nil {
		t.store.SetStampEpoch(r.opts.Epoch())
	}
}

// checkInstall vetoes installing a policy that already violates the
// registry's SSD constraints — the install-path half of the write guard
// (bootstrap seeding and provisioning; replica snapshot installs are
// exempt, see Options.Constraints).
func (r *Registry) checkInstall(p *policy.Policy) error {
	if r.opts.Constraints == nil {
		return nil
	}
	if vs := r.opts.Constraints.CheckPolicy(p); len(vs) > 0 {
		return fmt.Errorf("%w: %s", ErrConstraint, vs[0].Error())
	}
	return nil
}

// installAt replaces the tenant's state with p, durably (compacted snapshot
// on disk at seq, stamped with seqEpoch — the fencing epoch of the record
// the snapshot covers), and rebuilds the engine over it at that generation.
// seq is 0 for provisioning installs and the upstream generation for replica
// snapshot bootstraps; rewind permits moving below the local generation (the
// fork-healing install, see InstallReplicaSnapshot).
func (r *Registry) installAt(t *tenant, p *policy.Policy, seq, seqEpoch uint64, rewind bool) error {
	if err := t.store.CompactAt(p, int(seq), seqEpoch, rewind); err != nil {
		return err
	}
	// The replaced engine keeps its verdicts (readers may still hold its
	// snapshots); the successor interns its own.
	old := t.engine()
	t.eng.Store(t.store.NewEngine(p, r.opts.Mode, r.opts.CacheSlots >= 0))
	// Wake generation waiters blocked on the replaced engine so they
	// re-resolve the successor instead of sleeping out their timeout.
	old.Retire()
	return nil
}

// evictLocked shrinks the shard back to its residency budget, walking from
// the LRU tail and skipping tenants with in-flight operations. It only
// unlinks victims; the caller retires them after releasing the shard lock.
func (r *Registry) evictLocked(sh *shard) []*tenant {
	if r.opts.MaxResident <= 0 {
		return nil
	}
	var out []*tenant
	for e := sh.lru.Back(); e != nil && sh.lru.Len() > r.opts.MaxResident; {
		prev := e.Prev()
		t := e.Value.(*tenant)
		if t.inuse.Load() == 0 && !t.behind() {
			sh.unlinkLocked(t)
			out = append(out, t)
		}
		e = prev
	}
	return out
}

// shutdown compacts and closes a tenant's store. Called with the tenant
// unreachable from the maps and no in-flight operations.
func (t *tenant) shutdown() {
	t.submu.Lock()
	defer t.submu.Unlock()
	if t.store.SinceCompact() > 0 && !t.behind() {
		s := t.engine().Snapshot()
		// Best-effort: an eviction-time compaction failure loses nothing —
		// the WAL still holds every applied command.
		t.store.Compact(s.Policy())
		s.Close()
	}
	t.store.Close()
}

// maybeCompact compacts the tenant when its WAL grew past the budget. Must
// run under submu so the snapshot is taken at the WAL head. A failure is
// recorded for Stats but deliberately not surfaced to the submitter: the
// commands are already WAL-durable, and the un-reset SinceCompact counter
// retries compaction on the next submit.
func (t *tenant) maybeCompact(every int) {
	if every <= 0 || t.store.SinceCompact() < every || t.behind() {
		return
	}
	s := t.engine().Snapshot()
	defer s.Close()
	if err := t.store.Compact(s.Policy()); err != nil {
		msg := err.Error()
		t.compactErr.Store(&msg)
		return
	}
	t.compactErr.Store(nil)
}

// Authorize decides one command for the tenant, lazily opening it.
func (r *Registry) Authorize(name string, c command.Command) (engine.AuthzResult, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return engine.AuthzResult{}, err
	}
	defer t.release()
	t.authorizes.Add(1)
	s := t.engine().Snapshot()
	defer s.Close()
	just, ok := s.Authorize(c)
	return engine.AuthzResult{Justification: just, OK: ok}, nil
}

// AuthorizeBatchInto decides every command against one snapshot of the
// tenant's policy — one registry resolve, one snapshot acquisition, one
// decider for the whole batch — writing results into out's backing array
// when its capacity suffices, so request loops can reuse one buffer across
// calls. The returned generation is the engine generation every decision in
// the batch was taken at — the token a client passes back as min_generation
// to chain read-your-writes across replicas.
func (r *Registry) AuthorizeBatchInto(name string, cmds []command.Command, out []engine.AuthzResult) ([]engine.AuthzResult, uint64, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return nil, 0, err
	}
	defer t.release()
	t.authorizes.Add(uint64(len(cmds)))
	s := t.engine().Snapshot()
	defer s.Close()
	return s.AuthorizeBatchInto(cmds, out), s.Generation(), nil
}

// WaitGenerationCtx blocks until the tenant's engine generation reaches min,
// the timeout elapses or ctx is done (a server abandons the wait when its
// client disconnects), returning the generation last observed and whether it
// satisfies min — the serving side of the min_generation consistency token.
// On a follower the generation advances as replicated records are applied;
// on a primary it advances with local writes. A wait survives engine
// replacement: when a replica snapshot bootstrap installs a successor
// engine mid-wait, the retired engine wakes its waiters and the wait
// resumes against the successor for the remaining budget.
func (r *Registry) WaitGenerationCtx(ctx context.Context, name string, min uint64, timeout time.Duration) (uint64, bool, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return 0, false, err
	}
	defer t.release()
	deadline := time.Now().Add(timeout)
	for {
		eng := t.engine()
		gen, ok := eng.WaitGenerationCtx(ctx, min, time.Until(deadline))
		if ok {
			return gen, true, nil
		}
		if t.engine() == eng || ctx.Err() != nil || !time.Now().Before(deadline) {
			return gen, false, nil
		}
	}
}

// Submit executes one administrative command through the tenant's transition
// function, guarded by the registry's constraint set; applied commands are
// WAL-durable (step + audit record, fsynced under Options.Sync via the
// group-commit flush) before the result returns, and commands without effect
// are audited with their veto reason. Concurrent submitters on one tenant
// are coalesced into commit groups sharing a single write and fsync.
func (r *Registry) Submit(name string, c command.Command) (command.StepResult, error) {
	t, err := r.acquire(name, true)
	if err != nil {
		return command.StepResult{}, err
	}
	defer t.release()
	t.submits.Add(1)
	w := r.submitGrouped(context.Background(), t, []command.Command{c})
	res := command.StepResult{Cmd: c, Outcome: command.Denied}
	if len(w.results) > 0 {
		res = w.results[0]
	}
	if w.err != nil {
		return res, w.err
	}
	if len(w.vetoes) > 0 && w.vetoes[0] != nil {
		// Surface the guard's veto like SubmitGuarded does for a direct call.
		return res, w.vetoes[0]
	}
	return res, nil
}

// SubmitBatch executes the commands in order under one writer acquisition,
// each guarded by the registry's constraint set, publishing at most one new
// snapshot (see engine.SubmitBatch). The returned generation is the engine
// generation after the batch — the (tenant, generation) token a client
// hands to a read replica as min_generation to get read-your-writes without
// global coordination. Like Submit, concurrent batches on one tenant share
// a commit group's single write and fsync.
func (r *Registry) SubmitBatch(name string, cmds []command.Command) ([]command.StepResult, uint64, error) {
	return r.SubmitBatchCtx(context.Background(), name, cmds)
}

// SubmitBatchCtx is SubmitBatch bounded by ctx: a batch whose context
// expires while queued behind the in-flight commit group is refused with
// admission.ErrDeadline and its queue slot is reclaimed before the next
// leader drains — nothing reaches the WAL. Once a leader has drained it the
// commit's verdict is authoritative: an acknowledged write is never reported
// as expired. A tenant whose commit queue is at its MaxQueuedSubmits cap
// refuses with admission.ErrOverloaded.
func (r *Registry) SubmitBatchCtx(ctx context.Context, name string, cmds []command.Command) ([]command.StepResult, uint64, error) {
	t, err := r.acquire(name, true)
	if err != nil {
		return nil, 0, err
	}
	defer t.release()
	t.submits.Add(uint64(len(cmds)))
	w := r.submitGrouped(ctx, t, cmds)
	return w.results, w.gen, w.err
}

// submitWaiter is one submitter's slot in a tenant commit group: its commands
// going in and — once the group's covering flush succeeded or failed — its
// results, read-your-writes generation, per-command guard vetoes and group
// error coming out. done is closed by the group leader after the output
// fields are final.
type submitWaiter struct {
	cmds    []command.Command
	done    chan struct{}
	results []command.StepResult
	vetoes  []error
	gen     uint64
	err     error
}

// submitGrouped funnels one submission through the tenant's commit group:
// enqueue, contend for the writer lock, and whichever submitter wins commits
// every queued submission as one engine batch — one WAL write, one fsync
// (storage.OpenEngine's commit flush) — before releasing the drained waiters. Group
// size self-tunes: an uncontended submitter forms a group of one (identical
// to the direct path), while under N concurrent -sync submitters the fsync
// is amortised across whatever queued while the previous group was flushing.
//
// The wait is bounded two ways. The queue has a hard cap
// (Options.MaxQueuedSubmits → admission.ErrOverloaded, checked on entry),
// and a queued waiter races the writer lock against its own ctx: on expiry
// it removes itself from the queue — reclaiming the slot before any leader
// drains it — and returns admission.ErrDeadline with nothing committed. The
// race has exactly two clean outcomes for an expiring waiter: either it was
// still queued (removed, never committed) or a leader had already drained
// it, in which case the commit is in flight and its verdict, not the
// deadline, is what the submitter must hear — an acknowledged write
// reported as expired would be a lost-write lie in the other direction.
func (r *Registry) submitGrouped(ctx context.Context, t *tenant, cmds []command.Command) *submitWaiter {
	w := &submitWaiter{cmds: cmds, done: make(chan struct{})}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: don't burn commit-group capacity on a client that
		// already gave up.
		w.err = fmt.Errorf("tenant %s: submit: %w (%v)", t.name, admission.ErrDeadline, err)
		close(w.done)
		return w
	}
	if t.fenced.Load() {
		w.err = fmt.Errorf("tenant %s: %w", t.name, ErrFenced)
		close(w.done)
		return w
	}
	t.qmu.Lock()
	if max := r.opts.MaxQueuedSubmits; max > 0 && len(t.queue) >= max {
		t.qmu.Unlock()
		w.err = fmt.Errorf("tenant %s: commit queue full (%d queued): %w", t.name, max, admission.ErrOverloaded)
		close(w.done)
		return w
	}
	t.queue = append(t.queue, w)
	t.qmu.Unlock()

	select {
	case t.submu <- struct{}{}:
		// Leader: drain and commit whatever queued. w is either in the group
		// or was drained by an earlier leader (its done already closed).
		t.qmu.Lock()
		group := t.queue
		t.queue = nil
		t.qmu.Unlock()
		if len(group) > 0 {
			r.commitGroup(t, group)
		}
		t.submu.Unlock()
	case <-w.done:
		// An earlier leader committed w's group.
		return w
	case <-ctx.Done():
		t.qmu.Lock()
		removed := false
		for i, q := range t.queue {
			if q == w {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				removed = true
				break
			}
		}
		t.qmu.Unlock()
		if removed {
			w.err = fmt.Errorf("tenant %s: submit queued behind commit group: %w (%v)", t.name, admission.ErrDeadline, ctx.Err())
			close(w.done)
			return w
		}
		// Too late to withdraw: a leader drained w and its commit is in
		// flight. Wait for the authoritative verdict.
	}
	<-w.done
	return w
}

// commitGroup commits the drained waiters as one engine batch and
// distributes the outcome. The group shares fate on fatal errors: a failed
// covering flush rolled back every staged command (no waiter was
// acknowledged — see engine.SubmitBatch), and a mid-batch commit-hook stop
// leaves later waiters unprocessed, so every waiter sees the error. The
// generation handed to each waiter is the engine generation after the whole
// group — monotone, hence a valid read-your-writes token for every member.
// Caller holds t.submu.
func (r *Registry) commitGroup(t *tenant, group []*submitWaiter) {
	var refuse error
	if t.fenced.Load() {
		// A submitter that passed the entry check before the fence landed can
		// still become a leader afterwards; FenceWrites sets the flag before
		// taking submu, so re-checking here (under submu) guarantees no group
		// commits once FenceWrites has returned.
		refuse = ErrFenced
	} else if t.behind() {
		// A promoted ex-follower whose log lost published records (see behind):
		// a local write on top would leave a gap in it.
		refuse = errOutOfSync
	}
	if refuse != nil {
		for _, w := range group {
			w.err = fmt.Errorf("tenant %s: %w", t.name, refuse)
			close(w.done)
		}
		return
	}
	r.stampEpoch(t)
	eng := t.eng.Load()
	cmds := group[0].cmds
	if len(group) > 1 {
		total := 0
		for _, w := range group {
			total += len(w.cmds)
		}
		cmds = make([]command.Command, 0, total)
		for _, w := range group {
			cmds = append(cmds, w.cmds...)
		}
	}
	// Wrap the guard to capture per-command veto reasons for the audit
	// trail: the engine swallows guard errors batch-wise (a veto denies one
	// command, the batch continues).
	var vetoes []error
	guard := r.guard
	if guard != nil {
		inner := guard
		guard = func(pre *policy.Policy, c command.Command) error {
			err := inner(pre, c)
			vetoes = append(vetoes, err)
			return err
		}
	}
	out, err := eng.SubmitBatch(cmds, guard)
	t.auditMisses(eng, out, vetoes)
	gen := eng.Generation()
	off := 0
	for _, w := range group {
		end := off + len(w.cmds)
		// Copy this waiter's slices: out and vetoes are shared across the
		// group and the engine may have stopped before reaching its segment.
		if off < len(out) {
			w.results = append(w.results, out[off:min(end, len(out))]...)
		}
		if off < len(vetoes) {
			w.vetoes = append(w.vetoes, vetoes[off:min(end, len(vetoes))]...)
		}
		w.gen = gen
		w.err = err
		off = end
		close(w.done)
	}
	if err == nil {
		t.maybeCompact(r.opts.CompactEvery)
	}
}

// auditMisses appends audit records for the commands of a submission that
// did not change the policy (denied, vetoed, no-change, ill-formed);
// applied commands were already audited by the commit hook. vetoes[i], when
// present, is the guard's verdict on the i-th command. Appends are
// best-effort: a command without effect loses nothing on replay, and a
// failing WAL already surfaces through the submit path itself. Caller holds
// t.submu.
func (t *tenant) auditMisses(eng *engine.Engine, results []command.StepResult, vetoes []error) {
	gen := int(eng.Generation())
	for i, res := range results {
		if res.Outcome == command.Applied {
			continue
		}
		reason := ""
		if i < len(vetoes) && vetoes[i] != nil {
			if _, fatal := vetoes[i].(*engine.CommitError); !fatal {
				reason = vetoes[i].Error()
			}
		}
		t.store.AppendAudit(gen, res, reason)
	}
}

// InstallPolicy provisions a tenant with an initial policy. It only
// succeeds while the tenant has no administrative history (generation 0 and
// an empty WAL): live tenants evolve exclusively through Submit, so the
// transition function mediates every later change.
func (r *Registry) InstallPolicy(name string, p *policy.Policy) error {
	t, err := r.acquire(name, true)
	if err != nil {
		return err
	}
	defer t.release()
	t.submu.Lock()
	defer t.submu.Unlock()
	if t.engine().Generation() != 0 || t.store.Seq() != 0 {
		return fmt.Errorf("tenant %s: %w (generation %d)", name, errProvisioned, t.engine().Generation())
	}
	if err := r.checkInstall(p); err != nil {
		return fmt.Errorf("tenant %s: %w", name, err)
	}
	return r.installAt(t, p, 0, r.epochNow(), false)
}

// View acquires a read snapshot of the tenant's engine, pinning the tenant
// against eviction until release is called. This is how layers above the
// registry — the session tables in internal/session — evaluate against
// tenant state: checks run lock-free against the snapshot while the tenant
// stays resident. Exactly one release call per successful View.
func (r *Registry) View(name string) (snap *engine.Snapshot, release func(), err error) {
	p, err := r.Pin(name)
	if err != nil {
		return nil, nil, err
	}
	return p.Snap, p.Release, nil
}

// Pinned is what View acquires, as a value: the per-request paths hold it
// on the stack instead of paying for a release closure.
type Pinned struct {
	Snap *engine.Snapshot
	t    *tenant
}

// Release closes the snapshot and unpins the tenant. Exactly once per Pin.
func (p Pinned) Release() { p.Snap.Close(); p.t.release() }

// Pin is View without the closure.
func (r *Registry) Pin(name string) (Pinned, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return Pinned{}, err
	}
	// Deliberately not counted under Stats.Authorizes: session/check
	// traffic has its own counters (session.Stats.Checks), and mixing the
	// two would make the authorize metric unusable for capacity planning.
	return Pinned{Snap: t.engine().Snapshot(), t: t}, nil
}

// Audit returns the tenant's retained audit records with audit indexes
// (storage.Record.ASeq, the unique pagination cursor) above after, oldest
// first (capped at limit; <= 0 = no cap), the total audit records seen,
// and the generation the tenant currently serves at. On a follower
// the audit trail is replicated: applied-command audit records are re-minted
// by the local commit hook as the replicated steps replay, so the follower's
// WAL carries the same trail the primary's does.
func (r *Registry) Audit(name string, after uint64, limit int) (records []storage.Record, total uint64, gen uint64, err error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return nil, 0, 0, err
	}
	defer t.release()
	records, total = t.store.Audit(after, limit)
	return records, total, t.engine().Generation(), nil
}

// Stats reports the tenant's current state, lazily opening it.
func (r *Registry) Stats(name string) (Stats, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return Stats{}, err
	}
	defer t.release()
	s := t.engine().Snapshot()
	defer s.Close()
	st := Stats{
		Tenant:       t.name,
		Mode:         r.opts.Mode.String(),
		Generation:   s.Generation(),
		WALSeq:       t.store.Seq(),
		SinceCompact: t.store.SinceCompact(),
		Policy:       s.Policy().Stats(),
		Authorizes:   t.authorizes.Load(),
		Submits:      t.submits.Load(),
		Cache:        t.engine().CacheStats(),
		Recovered:    t.recovered,
	}
	if msg := t.compactErr.Load(); msg != nil {
		st.LastCompactError = *msg
	}
	return st, nil
}

// Resident reports how many tenants are currently open across all shards.
func (r *Registry) Resident() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// FenceWrites refuses further submissions on the tenant and drains the
// in-flight commit group before returning: afterwards the tenant's
// generation is stable until UnfenceWrites (or eviction). This is the
// source-side flip window of a live migration — the migrating primary
// fences, waits for the head to stop moving, verifies the target caught up
// to exactly that head, and only then flips placement. Queued submitters
// are refused with ErrFenced; nothing of theirs was committed.
func (r *Registry) FenceWrites(name string) error {
	t, err := r.acquire(name, true)
	if err != nil {
		return err
	}
	defer t.release()
	t.fenced.Store(true)
	// Barrier: once we hold submu, no commit group is in flight, and any
	// leader acquiring it later re-checks the fence before committing.
	t.submu.Lock()
	t.qmu.Lock()
	queued := t.queue
	t.queue = nil
	t.qmu.Unlock()
	for _, w := range queued {
		w.err = fmt.Errorf("tenant %s: %w", t.name, ErrFenced)
		close(w.done)
	}
	t.submu.Unlock()
	return nil
}

// UnfenceWrites lifts a FenceWrites fence — the rollback path of a failed
// migration. No-op when the tenant is not resident (an evicted tenant
// reopens unfenced).
func (r *Registry) UnfenceWrites(name string) {
	sh := r.shardOf(name)
	sh.mu.Lock()
	t, ok := sh.tenants[name]
	sh.mu.Unlock()
	if ok {
		t.fenced.Store(false)
	}
}

// Evict compacts and closes the tenant if it is resident and idle, reporting
// whether it was evicted. Busy tenants are left alone. Like a budget eviction
// it shuts the tenant down outside the shard lock with the name marked
// closing, so an acquire of the name waits until the directory is safe.
func (r *Registry) Evict(name string) bool {
	sh := r.shardOf(name)
	sh.mu.Lock()
	t, ok := sh.tenants[name]
	if ok = ok && t.inuse.Load() == 0 && !t.behind(); ok {
		sh.unlinkLocked(t)
	}
	sh.mu.Unlock()
	if ok {
		r.retire(sh, []*tenant{t})
	}
	return ok
}

// Close compacts and closes every resident tenant and rejects further
// operations.
func (r *Registry) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		for name, t := range sh.tenants {
			t.shutdown()
			delete(sh.tenants, name)
		}
		sh.lru.Init()
		sh.mu.Unlock()
	}
	return nil
}
