package replication

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/tenant"
)

// ErrUpstreamFenced marks a pull or bootstrap answered with 421: the
// upstream is not the primary of the follower's epoch (demoted, fenced, or
// never was one). The follower keeps serving its local state and retries
// with backoff; the cure is re-pointing at the current primary (see the
// server's repoint endpoint).
var ErrUpstreamFenced = errors.New("replication: upstream is not the primary")

// IsUpstreamFenced reports whether err is a 421 fencing rejection from the
// upstream.
func IsUpstreamFenced(err error) bool { return errors.Is(err, ErrUpstreamFenced) }

// maxPullBody bounds one pull response body. The primary's log is compacted
// on a budget, so a batch ever approaching this signals a broken peer, not a
// big backlog (a genuinely far-behind follower gets 410 + snapshot instead).
const maxPullBody = 64 << 20

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Upstream is the primary's base URL, e.g. "http://10.0.0.1:8270".
	Upstream string
	// PollWait is the long-poll bound each pull asks the primary to hold the
	// request open for when there is nothing to ship (default 10s).
	PollWait time.Duration
	// SyncWait bounds how long Ensure blocks waiting for a tenant's first
	// sync before reporting the replication error (default 10s).
	SyncWait time.Duration
	// Backoff is the initial retry delay after a failed pull, doubled up to
	// 16x (default 250ms).
	Backoff time.Duration
	// IdleAfter retires a tenant's pull loop when no read has touched it for
	// this long (default 5m): the goroutine and its standing long-poll go
	// away and the local registry may LRU-evict the tenant. The next read
	// re-Ensures and replication resumes from the local WAL position.
	// Negative disables retirement.
	IdleAfter time.Duration
	// Client overrides the HTTP client (tests, fault injection — wrap its
	// Transport with a fault.Transport to chaos-test convergence). Its
	// timeout must exceed PollWait or every idle long-poll errors; snapshot
	// bootstraps reuse its Transport but not its timeout (see
	// snapshotTimeout).
	Client *http.Client
	// Epoch is the node's fencing epoch handle, shared with the server and
	// the node-level store. Every pull carries it and every response epoch
	// above it is adopted durably before a single record is applied. Nil
	// reads as a permanent epoch 0.
	Epoch *Epoch
	// JitterSeed seeds the retry-backoff jitter (0 = time-seeded). Fixed
	// seeds make chaos tests replayable.
	JitterSeed int64
	// Breaker, when non-nil, gates every upstream round trip (pull and
	// snapshot bootstrap): after its threshold of consecutive transport
	// failures the follower stops dialing a dead upstream and fails fast
	// until a half-open probe gets an answer. Share the same breaker with
	// the server (server.Config.Breaker) so the write-forwarding 307 path
	// learns about upstream death from replication traffic and vice versa.
	// Any HTTP response — including 421/404 — counts as upstream-alive; only
	// transport-level failures feed the breaker.
	Breaker *admission.Breaker
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.SyncWait <= 0 {
		o.SyncWait = 10 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.IdleAfter == 0 {
		o.IdleAfter = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: o.PollWait + 15*time.Second}
	}
	return o
}

// Follower replicates tenants from an upstream primary into a local
// registry and tracks per-tenant lag. Tenants replicate lazily: the first
// read touching a name starts its pull loop (Ensure), mirroring the
// registry's own lazy open. Reads keep being served from the local replayed
// state when the upstream drops — stale but available — and the loops
// reconnect with backoff.
type Follower struct {
	reg  *tenant.Registry
	opts FollowerOptions
	// up talks to the primary. Its snapshot client shares Client's transport
	// but drops its overall timeout: snapshot bootstraps are bounded
	// per-request by snapshotTimeout contexts instead of the long-poll-sized
	// Client.Timeout.
	up upstream

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// rngMu guards rng, the backoff-jitter source shared by the per-tenant
	// pull loops.
	rngMu sync.Mutex
	rng   *rand.Rand

	// tenants maps a name to its *followTenant. Ensure reads it lock-free on
	// every follower read; mu serialises the inserts and deletes (and Close).
	mu      sync.Mutex
	tenants sync.Map
}

// followTenant is one tenant's replication state.
type followTenant struct {
	name string
	// synced is closed when the first sync attempt concludes (either way);
	// Ensure waits on it, then reads the live fields below.
	synced chan struct{}
	// haveLocal is set once the tenant has local state to serve. lastTouch is
	// the last time (Unix nanoseconds) a read Ensured this tenant; the pull
	// loop retires itself past IdleAfter. Both are atomics: they are all a
	// read of a synced tenant touches.
	haveLocal atomic.Bool
	lastTouch atomic.Int64
	mu        sync.Mutex
	syncDone  bool
	syncErr   error // nil once the tenant has local state to serve
	gen       uint64
	// epoch is the fencing epoch of the local record at gen — the
	// after_epoch half of the pull cursor (see tenant.PullWAL).
	epoch   uint64
	head    uint64
	healthy bool
	lastOK  time.Time
	lastErr string
	pulls   uint64
	bootstr uint64
	applied uint64
}

// LagStats is one tenant's replication telemetry, surfaced on the follower's
// stats endpoint.
type LagStats struct {
	// Generation is the tenant's local (replayed) generation.
	Generation uint64 `json:"generation"`
	// UpstreamHead is the primary's generation at the last successful pull.
	UpstreamHead uint64 `json:"upstream_head"`
	// Lag is UpstreamHead - Generation as of the last contact: how many
	// applied writes the replica still has to replay.
	Lag uint64 `json:"lag"`
	// Healthy reports the last pull succeeded; reads keep serving the local
	// state either way (graceful failover).
	Healthy     bool   `json:"healthy"`
	LastContact string `json:"last_contact,omitempty"`
	Pulls       uint64 `json:"pulls"`
	Bootstraps  uint64 `json:"bootstraps"`
	// RecordsApplied counts WAL records replayed into the local engine.
	RecordsApplied uint64 `json:"records_applied"`
	LastError      string `json:"last_error,omitempty"`
}

// NewFollower builds a follower replicating into reg from opts.Upstream.
// Close it to stop the pull loops.
func NewFollower(reg *tenant.Registry, opts FollowerOptions) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	opts = opts.withDefaults()
	snap := *opts.Client
	snap.Timeout = 0
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Follower{
		reg:  reg,
		opts: opts,
		up: upstream{base: opts.Upstream, client: opts.Client, snap: &snap, epoch: opts.Epoch,
			sendEpoch: true, refuseBehind: true, breaker: opts.Breaker},
		ctx:    ctx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// WithUpstream builds a fresh follower over the same registry and options
// pointed at a different primary — the repoint primitive (see the server's
// /v1/cluster/repoint). The receiver is left untouched; the caller closes it once
// the replacement is in place, and each tenant's new pull loop resumes from
// the durable local WAL position.
func (f *Follower) WithUpstream(upstream string) *Follower {
	opts := f.opts
	opts.Upstream = upstream
	return NewFollower(f.reg, opts)
}

// Upstream returns the primary's base URL (the follower's redirect target
// for writes).
func (f *Follower) Upstream() string { return f.opts.Upstream }

// Options returns a copy of the follower's effective options (defaults
// applied) — the template a server reuses when it must build a replacement
// follower pointing at a different upstream.
func (f *Follower) Options() FollowerOptions { return f.opts }

// Close stops every pull loop and waits for them to exit.
func (f *Follower) Close() {
	// Cancel under the mutex: Ensure checks ctx.Err() and does wg.Add in the
	// same critical section, so a loop is either fully registered before the
	// cancel (Wait covers it) or never started — no Add racing Wait at zero.
	f.mu.Lock()
	f.cancel()
	f.mu.Unlock()
	f.wg.Wait()
}

// Ensure makes sure the tenant is being replicated, starting its pull loop
// on first touch, and blocks (bounded by SyncWait) until the tenant has
// local state to serve. It returns nil once reads can be answered locally —
// including stale-but-available service while the upstream is down — and the
// replication error otherwise (an upstream miss maps onto tenant.IsNotFound).
func (f *Follower) Ensure(name string) error {
	if !tenant.ValidName(name) {
		// Same sentinel the registry uses, so the transport maps a bad name
		// to 400 on followers exactly as it does on primaries.
		return fmt.Errorf("tenant %q: %w", name, tenant.ErrBadName)
	}
	v, ok := f.tenants.Load(name)
	if !ok {
		f.mu.Lock()
		if v, ok = f.tenants.Load(name); !ok {
			if f.ctx.Err() != nil {
				f.mu.Unlock()
				return fmt.Errorf("replication: follower closed")
			}
			ft := &followTenant{name: name, synced: make(chan struct{})}
			ft.lastTouch.Store(time.Now().UnixNano())
			f.tenants.Store(name, ft)
			f.wg.Add(1)
			go f.run(ft)
			v = ft
		}
		f.mu.Unlock()
	}
	ft := v.(*followTenant)
	ft.lastTouch.Store(time.Now().UnixNano())
	if ft.haveLocal.Load() {
		return nil // the steady state: no lock, no timer, no allocation
	}

	wait := time.NewTimer(f.opts.SyncWait)
	defer wait.Stop()
	select {
	case <-ft.synced:
	case <-wait.C:
	case <-f.ctx.Done():
	}
	if ft.haveLocal.Load() {
		return nil
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.syncErr != nil {
		return ft.syncErr
	}
	return fmt.Errorf("replication: tenant %s: initial sync timed out after %v (last error: %s)",
		name, f.opts.SyncWait, ft.lastErr)
}

// LagStats reports the tenant's replication telemetry (false when the tenant
// is not replicated here).
func (f *Follower) LagStats(name string) (LagStats, bool) {
	v, ok := f.tenants.Load(name)
	if !ok {
		return LagStats{}, false
	}
	ft := v.(*followTenant)
	ft.mu.Lock()
	defer ft.mu.Unlock()
	st := LagStats{
		Generation:     ft.gen,
		UpstreamHead:   ft.head,
		Healthy:        ft.healthy,
		Pulls:          ft.pulls,
		Bootstraps:     ft.bootstr,
		RecordsApplied: ft.applied,
		LastError:      ft.lastErr,
	}
	if ft.head > ft.gen {
		st.Lag = ft.head - ft.gen
	}
	if !ft.lastOK.IsZero() {
		st.LastContact = ft.lastOK.UTC().Format(time.RFC3339Nano)
	}
	return st, true
}

// Tenants lists the replicated tenant names.
func (f *Follower) Tenants() []string {
	var names []string
	f.tenants.Range(func(name, _ any) bool {
		names = append(names, name.(string))
		return true
	})
	return names
}

// run is one tenant's pull loop: bootstrap when there is no local state,
// then long-poll the primary and apply record batches, falling back to a
// snapshot bootstrap whenever the apply reports out-of-sync or the primary
// compacted past us (410).
func (f *Follower) run(ft *followTenant) {
	defer f.wg.Done()

	// A SIGKILLed follower restarts with durable local state: serve reads
	// from it immediately (and catch up in the background) so losing the
	// upstream never takes reads down with it.
	gen, epoch, err := f.reg.ReplicaPosition(ft.name)
	switch {
	case err == nil:
		ft.update(func() { ft.gen, ft.epoch = gen, epoch })
		ft.haveLocal.Store(true)
		ft.finishSync(nil)
	case !tenant.IsNotFound(err):
		ft.update(func() { ft.lastErr = err.Error() })
	}

	backoff := f.opts.Backoff
	for f.ctx.Err() == nil {
		if f.opts.IdleAfter > 0 && time.Since(ft.touched()) > f.opts.IdleAfter && ft.haveLocal.Load() {
			// No read has wanted this tenant for a while: retire the loop
			// (and its standing long-poll) so idle tenants cost nothing and
			// the local registry may evict them. The next read re-Ensures
			// and replication resumes from the durable local position.
			// Re-checked under the map lock so an Ensure that just resolved
			// this entry almost always keeps its loop; the residual window
			// (Ensure between the check and the delete) only delays resync
			// until that tenant's next read.
			f.mu.Lock()
			if time.Since(ft.touched()) > f.opts.IdleAfter {
				f.tenants.Delete(ft.name)
				f.mu.Unlock()
				return
			}
			f.mu.Unlock()
		}
		advanced, err := f.step(ft)
		switch {
		case err == nil:
			backoff = f.opts.Backoff
			if !advanced {
				continue // idle long-poll round; re-poll immediately
			}
		case tenant.IsNotFound(err) && !ft.haveLocal.Load():
			// The tenant does not exist upstream and we hold nothing local:
			// report not-found and retire the loop so probing bogus names
			// costs one snapshot round-trip, not a goroutine forever. The
			// next read retries from scratch.
			ft.finishSync(err)
			f.mu.Lock()
			f.tenants.Delete(ft.name)
			f.mu.Unlock()
			return
		default:
			ft.update(func() { ft.healthy, ft.lastErr = false, err.Error() })
			ft.finishSync(err)
			f.sleep(f.jitter(backoff))
			if backoff < 16*f.opts.Backoff {
				backoff *= 2
			}
		}
	}
}

// step performs one replication round: bootstrap if needed, else one pull +
// apply. advanced reports whether new records were applied (so the caller
// can distinguish progress from an idle long-poll).
func (f *Follower) step(ft *followTenant) (advanced bool, err error) {
	if !ft.haveLocal.Load() {
		if err := f.bootstrap(ft); err != nil {
			return false, err
		}
		ft.finishSync(nil)
		return true, nil
	}
	gen, epoch := ft.position()
	res, err := f.up.pull(f.ctx, ft.name, gen, epoch, f.opts.PollWait)
	if err != nil {
		return false, err
	}
	ft.update(func() {
		ft.pulls++
		ft.head = res.head
		ft.healthy = true
		ft.lastOK = time.Now()
		ft.lastErr = ""
	})
	switch {
	case res.snapshotNeeded:
	case len(res.records) == 0:
		// Caught up and idle. Verify the state checksum: generation equality
		// plus edge-count equality catches the one divergence generations
		// cannot see (a policy installed at generation 0 after we
		// bootstrapped the tenant empty).
		if gen != res.head || res.edges < 0 {
			return false, nil
		}
		if edges, err := f.reg.EdgeCount(ft.name); err != nil || edges == res.edges {
			return false, nil
		}
	default:
		newGen, newEpoch, err := apply(f.reg, ft.name, res.records, epoch)
		if err == nil {
			ft.update(func() {
				ft.applied += uint64(len(res.records))
				ft.gen, ft.epoch = newGen, newEpoch
			})
			return true, nil
		}
		if !tenant.IsOutOfSync(err) {
			return false, err
		}
	}
	return true, f.bootstrap(ft)
}

// snapshotTimeout bounds one snapshot bootstrap round trip.
const snapshotTimeout = 90 * time.Second

// bootstrap fetches the primary's snapshot and installs it locally, leaving
// the tenant at the snapshot's generation. The request runs under its own
// snapshotTimeout deadline on the timeout-free snapshot client: a large
// tenant's transfer must not be cut off by the long-poll-sized
// Client.Timeout.
func (f *Follower) bootstrap(ft *followTenant) error {
	ctx, cancel := context.WithTimeout(f.ctx, snapshotTimeout)
	defer cancel()
	seq, seqEpoch, err := f.up.snapshot(ctx, f.reg, ft.name)
	if err != nil {
		return err
	}
	ft.update(func() {
		ft.bootstr++
		ft.gen = seq
		ft.epoch = seqEpoch
		if seq > ft.head {
			ft.head = seq
		}
		ft.healthy = true
		ft.lastOK = time.Now()
		ft.lastErr = ""
	})
	ft.haveLocal.Store(true)
	return nil
}

// jitter spreads a retry delay over [d/2, 3d/2): deterministic doubling
// alone would reconnect every follower in lockstep after a primary restart
// — a thundering herd aimed at exactly the node that just recovered.
func (f *Follower) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return d/2 + time.Duration(f.rng.Int63n(int64(d)))
}

// sleep blocks for d or until the follower closes.
func (f *Follower) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
	}
}

func (ft *followTenant) update(fn func()) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	fn()
}

func (ft *followTenant) position() (uint64, uint64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.gen, ft.epoch
}

func (ft *followTenant) touched() time.Time { return time.Unix(0, ft.lastTouch.Load()) }

// finishSync concludes the first sync attempt: Ensure unblocks and reads
// the outcome. Later calls only refresh the recorded error.
func (ft *followTenant) finishSync(err error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.syncErr = err
	if !ft.syncDone {
		ft.syncDone = true
		close(ft.synced)
	}
}
