package replication

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"adminrefine/internal/tenant"
)

// CatchUpOptions configures a one-shot migration catch-up (see CatchUp).
type CatchUpOptions struct {
	// Upstream is the source primary's base URL.
	Upstream string
	// Epoch is the node's fencing-epoch handle. CatchUp never SENDS an epoch
	// — the source and target are independent primaries, and presenting the
	// target's (possibly higher) epoch would make the source demote itself,
	// a fencing rule meant for rivals within one lineage, not for a
	// migration peer. Response epochs above ours are still adopted durably,
	// so records the target will stamp after the flip never move the
	// tenant's epoch backwards. Nil reads as a permanent epoch 0.
	Epoch *Epoch
}

// A catch-up retries a transient error up to catchUpAttempts times in a
// row, catchUpBackoff apart, each round trip bounded by catchUpTimeout.
const (
	catchUpAttempts = 3
	catchUpBackoff  = 100 * time.Millisecond
	catchUpTimeout  = 30 * time.Second
)

// CatchUp replicates one tenant from opts.Upstream into reg until the local
// copy reaches the source's head, returning the generation it stopped at —
// the target half of a live migration. It reuses the replication wire
// protocol (snapshot bootstrap + pull) but runs to completion instead of
// looping forever: a pull answering "no records, head == local generation,
// edge counts match" ends it. The migration flip protocol calls it twice —
// once unfenced for the bulk transfer, once after the source fenced the
// tenant's writes, when the head is frozen and the returned generation is
// exactly the value the source verifies before flipping placement.
func CatchUp(ctx context.Context, reg *tenant.Registry, name string, opts CatchUpOptions) (uint64, error) {
	client := &http.Client{Timeout: catchUpTimeout}
	u := &upstream{base: opts.Upstream, client: client, snap: client, epoch: opts.Epoch}
	gen, epoch, err := reg.ReplicaPosition(name)
	haveLocal := err == nil
	if err != nil && !tenant.IsNotFound(err) {
		return 0, err
	}
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("replication: catch up %s: %w", name, err)
		}
		done, newGen, newEpoch, err := catchUpStep(ctx, reg, name, gen, epoch, haveLocal, u)
		if err != nil {
			if tenant.IsNotFound(err) || IsUpstreamFenced(err) {
				return 0, err // no amount of retrying fixes these
			}
			attempts++
			if attempts >= catchUpAttempts {
				return 0, err
			}
			t := time.NewTimer(catchUpBackoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return 0, ctx.Err()
			}
			continue
		}
		attempts = 0
		gen, epoch, haveLocal = newGen, newEpoch, true
		if done {
			return gen, nil
		}
	}
}

// catchUpStep performs one replication round: one immediate pull + apply, or
// a snapshot bootstrap when there is no local state or the source signalled a
// gap or fork. done reports the caught-up-and-verified state.
func catchUpStep(ctx context.Context, reg *tenant.Registry, name string, gen, epoch uint64, haveLocal bool, u *upstream) (done bool, newGen, newEpoch uint64, err error) {
	if haveLocal {
		res, err := u.pull(ctx, name, gen, epoch, 0)
		switch {
		case err != nil:
			return false, gen, epoch, err
		case res.snapshotNeeded:
		case len(res.records) == 0:
			// Serving nothing yet claiming a different head is a fresh
			// compaction window; bootstrap resolves it. Otherwise we are caught
			// up; run the same state checksum the steady-state follower uses
			// (generation equality alone misses a policy installed at
			// generation 0 after an empty bootstrap).
			if gen == res.head {
				if local, err := reg.EdgeCount(name); res.edges < 0 || err != nil || local == res.edges {
					return true, gen, epoch, nil
				}
			}
		default:
			newGen, newEpoch, err = apply(reg, name, res.records, epoch)
			if err == nil || !tenant.IsOutOfSync(err) {
				return false, newGen, newEpoch, err
			}
		}
	}
	newGen, newEpoch, err = u.snapshot(ctx, reg, name)
	return false, newGen, newEpoch, err
}
