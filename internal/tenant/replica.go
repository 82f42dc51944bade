// Replication entry points of the Registry: the primary side serves its
// per-tenant WAL to pullers (PullWAL, SnapshotDump) and the follower side
// applies what it pulled (ApplyReplicated, InstallReplicaSnapshot). The
// transport lives in internal/replication; this file is the storage/engine
// coupling — a pulled record batch flows through engine.SubmitReplicated, so
// a follower re-runs the transition function on an identical pre-state and
// readers never observe a half-applied batch.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"adminrefine/internal/command"
	"adminrefine/internal/policy"
	"adminrefine/internal/storage"
)

// errOutOfSync marks a replication apply that cannot extend the local state:
// a sequence gap (the primary compacted past us), a divergent replay (a
// replicated command stepped differently than the primary logged), or a local
// log behind the published generation (see behind). Either way the cure is a
// snapshot bootstrap, not a retry.
var errOutOfSync = errors.New("replica out of sync")

// behind reports a store that lost records its engine already published: a
// replicated apply's late fsync failed (see ApplyReplicated). Published state
// cannot be rolled back, so until a snapshot install at or above it replaces
// both, nothing may extend, compact or reopen the log: an append would leave a
// gap in it, a compaction would label newer state with an older position, and
// an eviction would reopen below a generation readers were already served.
// Caller holds t.submu or has the tenant unlinked and idle.
func (t *tenant) behind() bool { return uint64(t.store.Seq()) != t.engine().Generation() }

// IsOutOfSync reports whether err calls for a snapshot bootstrap: the
// tenant's local state can no longer be extended record-by-record.
func IsOutOfSync(err error) bool { return errors.Is(err, errOutOfSync) }

// PullResult is one answer of the primary's log-shipping endpoint.
type PullResult struct {
	// Records are the WAL records with sequence numbers above the requested
	// afterSeq, in order. Empty when the wait timed out with no new writes.
	Records []storage.Record
	// Head is the tenant's generation on the primary, measured together with
	// Edges on one snapshot.
	Head uint64
	// SnapshotNeeded reports that the log no longer covers afterSeq (a
	// compaction folded it into the snapshot): the puller must bootstrap
	// from SnapshotDump instead.
	SnapshotNeeded bool
	// Edges counts the policy's edges at Head — a cheap state checksum. A
	// follower that believes itself caught up (its generation equals Head and
	// no records were returned) verifies its own edge count against this and
	// treats a mismatch as out-of-sync. This closes the one hole generation
	// numbers alone cannot see: a policy installed at generation 0 after the
	// follower bootstrapped an empty tenant.
	Edges int
}

// PullWAL serves one log-shipping round for a tenant: it long-polls (bounded
// by wait and ctx) until the tenant's generation passes afterSeq, then
// returns every logged record above afterSeq together with the current head.
// Reads never create tenants, so pulling an unknown name reports not-found.
//
// afterEpoch is the fencing epoch of the puller's record at afterSeq — the
// Raft-style prefix check that makes promotion fork-proof. Serving a pull
// is only sound when the puller's history up to afterSeq is a prefix of
// ours; a sequence number alone cannot tell a lagging follower from one
// whose records past the failover branch point came from the deposed
// primary. If the epoch stamped on our record at afterSeq differs from
// afterEpoch (or the position was compacted away), the puller's suffix
// forked and SnapshotNeeded forces a rewinding bootstrap instead of serving
// records that would silently extend divergent history.
func (r *Registry) PullWAL(ctx context.Context, name string, afterSeq uint64, afterEpoch uint64, wait time.Duration) (PullResult, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return PullResult{}, err
	}
	defer t.release()
	if afterSeq > 0 {
		if e, ok := t.store.EpochAt(int(afterSeq)); !ok || e != afterEpoch {
			s := t.engine().Snapshot()
			res := PullResult{SnapshotNeeded: true, Head: s.Generation(), Edges: s.Policy().NumEdges()}
			s.Close()
			return res, nil
		}
	}
	t.engine().WaitGenerationCtx(ctx, afterSeq+1, wait)
	recs, gap, err := t.store.ReadSince(int(afterSeq))
	if err != nil {
		return PullResult{}, err
	}
	// Applied-command audit records are not shipped: the follower's own
	// commit hook re-mints an identical audit record as it replays the step,
	// so shipping them would only double the stream (and the apply would
	// discard them anyway). No-effect audits — denials, vetoes — have no
	// step to re-mint them from and pass through.
	kept := recs[:0]
	for _, rec := range recs {
		if rec.IsAudit() && rec.Outcome == command.Applied {
			continue
		}
		kept = append(kept, rec)
	}
	recs = kept
	s := t.engine().Snapshot()
	head := s.Generation()
	edges := s.Policy().NumEdges()
	s.Close()
	// WAL appends run ahead of snapshot publication (write-ahead), so a
	// mid-commit pull may ship records beyond the published generation;
	// report a head covering them.
	if n := len(recs); n > 0 && uint64(recs[n-1].Seq) > head {
		head = uint64(recs[n-1].Seq)
	}
	return PullResult{Records: recs, Head: head, SnapshotNeeded: gap, Edges: edges}, nil
}

// ReplicaPosition reports the tenant's local replication position: the WAL
// head sequence and the fencing epoch stamped on the record there — exactly
// the (after_seq, after_epoch) pair a follower resumes pulling from.
func (r *Registry) ReplicaPosition(name string) (uint64, uint64, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return 0, 0, err
	}
	defer t.release()
	seq, epoch := t.store.Position()
	return uint64(seq), epoch, nil
}

// EdgeCount reports the tenant policy's edge count (UA+RH+PA) — the
// follower's half of the replication state checksum. O(1) per call, unlike
// Stats (which walks the role hierarchy for chain depths).
func (r *Registry) EdgeCount(name string) (int, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return 0, err
	}
	defer t.release()
	s := t.engine().Snapshot()
	defer s.Close()
	return s.Policy().NumEdges(), nil
}

// SnapshotDump serializes the tenant's current policy together with the
// generation it reflects, the fencing epoch of the record at that
// generation, and the retained audit window — the bootstrap payload a
// follower installs when it has no local state or the primary's log was
// compacted past its position. Shipping the audit window with the state
// means a snapshot-bootstrapped follower serves the same trail a
// step-replaying one does, instead of starting blind at its bootstrap
// point.
func (r *Registry) SnapshotDump(name string) (uint64, uint64, []byte, []storage.Record, error) {
	t, err := r.acquire(name, false)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	defer t.release()
	s := t.engine().Snapshot()
	defer s.Close()
	data, err := json.Marshal(s.Policy())
	if err != nil {
		return 0, 0, nil, nil, err
	}
	gen := s.Generation()
	epoch, ok := t.store.EpochAt(int(gen))
	if !ok {
		// The published generation should always be determinable (tail or
		// snapshot base); fall back to the WAL head's epoch.
		_, epoch = t.store.Position()
	}
	audit, _ := t.store.Audit(0, 0)
	return gen, epoch, data, audit, nil
}

// InstallReplicaSnapshot replaces the tenant's state with a snapshot pulled
// from the upstream primary: the policy becomes the durable on-disk snapshot
// at seq (stamped with seqEpoch, the fencing epoch of the record it covers),
// the primary's audit window (when provided) becomes the local audit trail,
// and a fresh engine resumes from there. Installing a snapshot behind the
// local generation is refused within an epoch — replication never moves a
// tenant backwards — but allowed across one: a snapshot from a newer epoch
// rewinding us is the fork-healing install, discarding a suffix the deposed
// primary acknowledged but the promoted one never had (the puller was
// fenced off extending it record-by-record by PullWAL's prefix check).
func (r *Registry) InstallReplicaSnapshot(name string, p *policy.Policy, seq uint64, seqEpoch uint64, audit []storage.Record) error {
	t, err := r.acquire(name, true)
	if err != nil {
		return err
	}
	defer t.release()
	t.submu.Lock()
	defer t.submu.Unlock()
	rewind := false
	if gen := t.engine().Generation(); seq < gen {
		if _, localEpoch := t.store.Position(); seqEpoch <= localEpoch {
			return fmt.Errorf("tenant %s: replica snapshot at %d behind local generation %d", name, seq, gen)
		}
		rewind = true
	}
	if err := r.installAt(t, p, seq, seqEpoch, rewind); err != nil {
		return err
	}
	// Adopt the upstream trail after the install: the install cleared the
	// local audit state (see storage.CompactAt), so this append rebuilds it
	// — durable in the local WAL, landed as one batched write.
	adopt := audit[:0]
	for _, a := range audit {
		if a.IsAudit() {
			adopt = append(adopt, a)
		}
	}
	if err := t.store.AppendRecords(adopt...); err != nil {
		return fmt.Errorf("tenant %s: replica audit: %w", name, err)
	}
	return nil
}

// ApplyReplicated extends the tenant's state with records pulled from the
// upstream primary, feeding the step records as one engine batch so readers
// never observe a half-applied batch and the local WAL (via the engine's
// commit hook) logs exactly what the primary logged. Records at or below the
// local generation are skipped (pull overlap on reconnect); a sequence gap or
// a replay that converges to a different generation than the primary's
// reports out-of-sync (see IsOutOfSync) and the caller bootstraps from a
// snapshot. It returns the tenant's generation after the apply.
//
// The order is land → publish → sync, where a primary's commit is land → sync
// → publish: every record here was fsynced by the primary before it was
// served, so visible at a replica already implies durable at its primary and
// a reader holding the generation token need not wait for this node's fsync.
// The fsync still runs — one per apply, covering every record landed — and
// ApplyReplicated returns only after it, so the position it reports (the pull
// cursor, CatchUp's result, what Promote inherits) is durable here too. If
// that fsync fails the published generation cannot be taken back: the store
// drops the unsynced records, the tenant is behind, and this and every later
// apply report out-of-sync until a snapshot install at the primary's head (at
// or above anything served) replaces the state — the served generation never
// steps back and the log never acquires a gap.
//
// Audit records ride the same stream but are observations, not effects:
// applied-command audits are dropped here (the local commit hook re-mints
// an identical one as the step replays, so the follower's audit trail is
// exact without double entries), while no-effect audits — denials, vetoes —
// are appended verbatim when they extend the local position (they only ship
// while the follower is behind; a caught-up follower's pull cursor has
// already passed their sequence number, so those stay on the node that
// refused the command).
func (r *Registry) ApplyReplicated(name string, records []storage.Record) (uint64, error) {
	t, err := r.acquire(name, true)
	if err != nil {
		return 0, err
	}
	defer t.release()
	t.submu.Lock()
	defer t.submu.Unlock()
	eng := t.eng.Load()
	gen := eng.Generation()
	if t.behind() {
		return gen, fmt.Errorf("tenant %s: log at %d behind published generation %d: %w", name, t.store.Seq(), gen, errOutOfSync)
	}
	cmds := make([]command.Command, 0, len(records))
	epochs := make([]uint64, 0, len(records))
	var audits []storage.Record
	next := gen
	for _, rec := range records {
		if rec.IsAudit() {
			if rec.Outcome != command.Applied && uint64(rec.Seq) > gen {
				audits = append(audits, rec)
			}
			continue
		}
		if uint64(rec.Seq) <= gen {
			continue
		}
		if uint64(rec.Seq) != next+1 {
			return gen, fmt.Errorf("tenant %s: replicated record seq %d does not extend generation %d: %w", name, rec.Seq, next, errOutOfSync)
		}
		cmds = append(cmds, rec.Cmd)
		epochs = append(epochs, rec.Epoch)
		next++
	}
	if len(cmds) == 0 && len(audits) == 0 {
		return gen, nil
	}
	t.submits.Add(uint64(len(cmds)))
	// Apply in runs of equal epoch, syncing the store's stamp epoch per run:
	// the commit hook re-logs each replayed step, and the local record must
	// carry the epoch the primary stamped — not the node's current one — or
	// the prefix check (PullWAL) would see phantom forks. Runs are almost
	// always the whole batch; a batch spanning an epoch boundary (records from
	// before and after a failover in one pull) splits once.
	var applyErr, syncErr error
	for i := 0; i < len(cmds) && applyErr == nil; {
		j := i + 1
		for j < len(cmds) && epochs[j] == epochs[i] {
			j++
		}
		t.store.SetStampEpoch(epochs[i])
		_, applyErr = eng.SubmitReplicated(cmds[i:j])
		i = j
	}
	// One write for the no-effect audits (best-effort: a lost one loses no
	// state), then the one fsync that covers everything this apply landed.
	if applyErr == nil {
		syncErr = t.store.AppendRecords(audits...)
	}
	syncErr = errors.Join(syncErr, t.store.Sync())
	got := eng.Generation()
	switch {
	case t.behind():
		return got, fmt.Errorf("tenant %s: generation %d published but not durable here (%v): %w", name, got, syncErr, errOutOfSync)
	case applyErr != nil:
		return got, applyErr
	case got != next:
		// A replayed command stepped differently than on the primary (denied
		// or no-change): the states diverged somewhere behind us.
		return got, fmt.Errorf("tenant %s: replicated batch converged to generation %d, want %d: %w", name, got, next, errOutOfSync)
	}
	t.maybeCompact(r.opts.CompactEvery)
	return next, nil
}
