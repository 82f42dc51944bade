package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/api"
	"adminrefine/internal/replication"
)

// The node is a role state machine — primary, follower or fenced. A primary
// serves writes and streams its WAL; a follower serves reads from its
// replicated state (starting a tenant's replication on first touch) and
// points writes at its upstream; a fenced node is a deposed ex-primary with
// no upstream yet: reads keep serving, writes are refused. Handlers take a
// read lock only to resolve the current role; the transitions below take the
// write lock — including across follower.Close, which is fast (cancelling
// the pull context aborts in-flight requests).

// ErrStaleEpoch rejects a conditional transition whose if_epoch guard
// missed: another transition won the race.
var ErrStaleEpoch = errors.New("if_epoch does not match the node's epoch")

// ErrPrimaryRepoint refuses to silently demote a serving primary by
// repointing it; depose it first by promoting another node (which fences
// this one) or restart it as a follower.
var ErrPrimaryRepoint = errors.New("node is the serving primary; promote its successor first")

// Follower resolves the follower handle under the current role (nil on a
// primary or fenced node).
func (c *Core) Follower() *replication.Follower {
	c.roleMu.RLock()
	defer c.roleMu.RUnlock()
	return c.follower
}

// Role names the node's replication role: "primary", "follower" or "fenced".
func (c *Core) Role() string {
	c.roleMu.RLock()
	defer c.roleMu.RUnlock()
	switch {
	case c.follower != nil:
		return "follower"
	case c.fenced:
		return "fenced"
	default:
		return "primary"
	}
}

// GateWrite resolves a write for the node's current role: nil on the
// serving primary. A follower answers misrouted carrying its upstream — or,
// once the pull loop proved that upstream unreachable, unavailable with the
// breaker's own horizon rather than pointing the client at a dead node. A
// fenced ex-primary answers fenced plus its epoch: it has no upstream to
// point at, the client must find the epoch's primary.
func (c *Core) GateWrite() *api.Error {
	c.roleMu.RLock()
	f, fenced := c.follower, c.fenced
	c.roleMu.RUnlock()
	switch {
	case f != nil && c.breaker.Open():
		c.breakerFastFail.Add(1)
		return &api.Error{
			Code:       api.CodeUnavailable,
			Message:    fmt.Sprintf("upstream primary %s unreachable (circuit open)", f.Upstream()),
			RetryAfter: RetryAfterSeconds(c.breaker.RetryAfter()),
			Node:       f.Upstream(),
		}
	case f != nil:
		return &api.Error{
			Code:    api.CodeMisrouted,
			Message: "node is a follower: writes go to the primary",
			Node:    f.Upstream(),
		}
	case fenced:
		epoch := c.epoch.Current()
		return &api.Error{
			Code:    api.CodeFenced,
			Message: fmt.Sprintf("node was deposed (epoch %d): not accepting writes", epoch),
			Epoch:   epoch,
		}
	}
	return nil
}

// RetryAfterSeconds renders a retry horizon for the envelope: d rounded up
// to whole seconds, at least 1.
func RetryAfterSeconds(d time.Duration) int {
	return max(1, int((d+time.Second-1)/time.Second))
}

// EnsureReplica starts/joins replication of the tenant on a follower; a
// no-op on primaries and fenced nodes, which serve their local state.
func (c *Core) EnsureReplica(name string) *api.Error {
	if f := c.Follower(); f != nil {
		if err := f.Ensure(name); err != nil {
			return c.Fail(admission.Read, err)
		}
	}
	return nil
}

// Promote flips this node to primary: the fencing epoch advances durably
// BEFORE a single write is accepted (a crash between the two leaves a fenced
// epoch on disk, never a split brain), the pull loops stop, and the
// replication source starts serving. ifEpoch, when non-zero, is a
// compare-and-swap guard: the promotion only proceeds while the node's epoch
// is exactly that value. Promoting a serving primary is a no-op reporting
// the current epoch.
func (c *Core) Promote(ifEpoch uint64) (uint64, error) {
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	if ifEpoch != 0 && c.epoch.Current() != ifEpoch {
		return c.epoch.Current(), ErrStaleEpoch
	}
	if c.follower == nil && !c.fenced {
		return c.epoch.Current(), nil
	}
	next, err := c.epoch.Advance()
	if err != nil {
		return c.epoch.Current(), err
	}
	if c.follower != nil {
		// Stop pulling before serving: a promoted node must not apply records
		// from the old history after it started minting its own.
		c.follower.Close()
		c.follower = nil
	}
	c.fenced = false
	c.source.SetServing(true)
	return next, nil
}

// Repoint points this node at a new upstream primary: a follower swaps its
// pull loops over (each tenant resumes from its durable local WAL position),
// and a fenced ex-primary rejoins as a follower — its first pull carries its
// stale (seq, epoch) cursor, and the new primary's prefix check turns any
// forked suffix into a rewinding snapshot bootstrap. ifEpoch is the same CAS
// guard Promote takes. A serving primary refuses (ErrPrimaryRepoint).
func (c *Core) Repoint(upstream string, ifEpoch uint64) error {
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	if ifEpoch != 0 && c.epoch.Current() != ifEpoch {
		return ErrStaleEpoch
	}
	if c.follower == nil && !c.fenced {
		return ErrPrimaryRepoint
	}
	old := c.follower
	if old != nil {
		c.follower = old.WithUpstream(upstream)
	} else {
		tmpl := c.followerTmpl
		tmpl.Upstream = upstream
		c.follower = replication.NewFollower(c.reg, tmpl)
	}
	c.fenced = false
	c.source.SetServing(false)
	// New upstream, fresh verdict: failures against the dead primary must
	// not fast-fail writes headed for its successor.
	c.breaker.Reset()
	if old != nil {
		old.Close()
	}
	return nil
}

// startProbe starts the unattended-failover loop (Config.PromoteOnUpstreamLoss):
// it probes the upstream's /healthz every interval and promotes this node
// after threshold consecutive failures. A successful probe or a repoint
// resets the count. Close stops it.
func (c *Core) startProbe(interval time.Duration, threshold int) {
	if interval <= 0 {
		interval = time.Second
	}
	if threshold <= 0 {
		threshold = 5
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopProbe = cancel
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		client := &http.Client{Timeout: interval}
		fails, last := 0, ""
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			f := c.Follower()
			if f == nil {
				// Promoted (by us or an operator) or fenced: nothing to probe.
				// Keep ticking — a later repoint re-arms the probe.
				fails = 0
				continue
			}
			if up := f.Upstream(); up != last {
				fails, last = 0, up
			}
			if upstreamHealthy(ctx, client, last) {
				fails = 0
				continue
			}
			if fails++; fails >= threshold {
				if _, err := c.Promote(0); err == nil {
					return
				}
				fails = 0
			}
		}
	}()
}

// upstreamHealthy performs one health probe.
func upstreamHealthy(ctx context.Context, client *http.Client, upstream string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, upstream+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fence demotes this node after a replication exchange proved a higher epoch
// exists (the source's OnFenced hook): adopt the epoch durably, stop serving
// writes and the WAL stream, and drop the node-local sessions — their
// min_generation contracts were made against a primaryship that just ended.
// On a follower this is just the adoption (a follower cannot be deposed).
func (c *Core) fence(peer uint64) {
	c.epoch.Observe(peer)
	c.roleMu.Lock()
	defer c.roleMu.Unlock()
	if c.follower != nil || c.fenced {
		return
	}
	c.fenced = true
	c.source.SetServing(false)
	c.sessions.DrainAll()
}

// Close releases the serving state: it stops the failover probe, closes the
// current follower's pull loops (the core owns the follower's lifecycle —
// repoints swap it at runtime), drains the node-local session tables
// (sessions die with the node, before the registry compacts and closes) and
// wakes every parked replication long-poll so an http.Server.Shutdown can
// drain without waiting out their poll budgets.
func (c *Core) Close() {
	if c.stopProbe != nil {
		c.stopProbe()
	}
	c.probeWG.Wait()
	if f := c.Follower(); f != nil {
		f.Close()
	}
	c.sessions.DrainAll()
	c.source.Close()
}
