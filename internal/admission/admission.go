// Package admission is the server's overload-protection core: per-class
// concurrency limits behind a semaphore-with-deadline primitive, and a
// circuit breaker for upstream dependencies. A node under 3× its sustained
// capacity must refuse the excess quickly and cheaply — queueing it
// unboundedly turns one overload into unbounded latency for every caller —
// so each request class (read / write / replication / analysis) owns a
// bounded in-flight budget plus a bounded wait queue, and whatever exceeds
// them is shed immediately with a typed error the transport maps onto
// 429/503 + Retry-After.
//
// Shed order is a policy choice made by the limits, not the code: reads are
// configured with a shallow (usually zero) queue so they shed first — a
// stale-tolerant read is the cheapest work to refuse and the easiest for a
// client to retry elsewhere — while writes get a deeper queue because a
// shed write is work the client must redo against the same primary.
//
// The package imports only the standard library; the server and tenant
// layers adapt it through their own seams.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Class partitions requests by the resource they contend on. Limits are
// enforced per class so a flood of one kind cannot starve the others.
type Class int

const (
	// Read covers authorize/check/explain/audit/stats-free lookups — work
	// served lock-free from engine snapshots.
	Read Class = iota
	// Write covers submit and policy installs — work serialised through a
	// tenant's commit group.
	Write
	// Replication covers follower pull/bootstrap traffic — long-polls that
	// legitimately outlast any request deadline.
	Replication
	// Analysis covers offline what-if/reachability jobs (reserved; wired
	// when ROADMAP item 5 lands an analysis API).
	Analysis

	numClasses
)

func (c Class) String() string {
	switch c {
	case Read:
		return "read"
	case Write:
		return "write"
	case Replication:
		return "replication"
	case Analysis:
		return "analysis"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Typed refusal causes. Transports map IsOverloaded on reads to 429 and
// everything else to 503, always with Retry-After.
var (
	// ErrOverloaded means the class was saturated and its queue full — the
	// request was refused without waiting.
	ErrOverloaded = errors.New("admission: overloaded")
	// ErrDeadline means the request's deadline expired (or its client went
	// away) while it waited for capacity.
	ErrDeadline = errors.New("admission: deadline expired")
)

// IsOverloaded reports whether err is a queue-full refusal.
func IsOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

// IsDeadline reports whether err is a deadline expiry while queued.
func IsDeadline(err error) bool { return errors.Is(err, ErrDeadline) }

// Limits bounds one class. The zero value is "unlimited but accounted":
// in-flight and admitted counters still run so /stats shows load even where
// no limit applies.
type Limits struct {
	// MaxInFlight caps concurrently admitted requests (0 = unlimited).
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot; arrivals beyond
	// it are refused immediately with ErrOverloaded. 0 means no waiting at
	// all — saturation sheds on arrival, which is the read-class default.
	// Ignored while MaxInFlight is 0.
	MaxQueue int
}

// Config carries the per-class limits for a Controller.
type Config struct {
	Read        Limits
	Write       Limits
	Replication Limits
	Analysis    Limits
}

// ClassStats is one class's live admission state plus lifetime counters.
type ClassStats struct {
	InFlight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
	Admitted     uint64 `json:"admitted"`
	ShedOverload uint64 `json:"shed_overload"`
	ShedDeadline uint64 `json:"shed_deadline"`
	MaxInFlight  int    `json:"max_inflight"`
	MaxQueue     int    `json:"max_queue"`
}

// Stats is the per-class admission picture exposed on /stats and /healthz.
type Stats struct {
	Read        ClassStats `json:"read"`
	Write       ClassStats `json:"write"`
	Replication ClassStats `json:"replication"`
	Analysis    ClassStats `json:"analysis"`
}

// Shed is the lifetime total of refused requests across every class and
// cause — the number a load harness reconciles against client-observed
// 429/503 responses.
func (s Stats) Shed() uint64 {
	total := uint64(0)
	for _, c := range [...]ClassStats{s.Read, s.Write, s.Replication, s.Analysis} {
		total += c.ShedOverload + c.ShedDeadline
	}
	return total
}

// sem is one class's semaphore-with-deadline: a buffered channel holds the
// in-flight slots, an atomic counter bounds the wait queue, and atomics
// carry the stats so Acquire never takes a lock on the fast path.
type sem struct {
	limits Limits
	// slots carries one token per admitted request; nil when unlimited.
	slots   chan struct{}
	release func() // built once in newSem: admitting allocates nothing

	inflight     atomic.Int64
	queued       atomic.Int64
	admitted     atomic.Uint64
	shedOverload atomic.Uint64
	shedDeadline atomic.Uint64
}

func newSem(l Limits) *sem {
	s := &sem{limits: l}
	s.release = func() { s.inflight.Add(-1) }
	if l.MaxInFlight > 0 {
		s.slots = make(chan struct{}, l.MaxInFlight)
		s.release = func() {
			s.inflight.Add(-1)
			<-s.slots
		}
	}
	return s
}

// acquire admits the caller or refuses with a typed error. On success the
// returned release must be called exactly once when the request finishes.
// Only a queued caller turns deadline (zero: none) into a context.
func (s *sem) acquire(ctx context.Context, deadline time.Time) (release func(), err error) {
	if s.slots == nil {
		// Unlimited: account, never refuse.
		s.inflight.Add(1)
		s.admitted.Add(1)
		return s.release, nil
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// Saturated: wait in the bounded queue or shed on arrival.
		if int(s.queued.Add(1)) > s.limits.MaxQueue {
			s.queued.Add(-1)
			s.shedOverload.Add(1)
			return nil, fmt.Errorf("%d in flight, queue full: %w", s.limits.MaxInFlight, ErrOverloaded)
		}
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.shedDeadline.Add(1)
			return nil, fmt.Errorf("queued at %d in flight: %w", s.limits.MaxInFlight, ErrDeadline)
		}
	}
	s.inflight.Add(1)
	s.admitted.Add(1)
	return s.release, nil
}

func (s *sem) stats() ClassStats {
	return ClassStats{
		InFlight:     s.inflight.Load(),
		Queued:       s.queued.Load(),
		Admitted:     s.admitted.Load(),
		ShedOverload: s.shedOverload.Load(),
		ShedDeadline: s.shedDeadline.Load(),
		MaxInFlight:  s.limits.MaxInFlight,
		MaxQueue:     s.limits.MaxQueue,
	}
}

// Controller enforces per-class limits. A nil *Controller admits everything
// (and accounts nothing), so callers can wire it unconditionally.
type Controller struct {
	classes [numClasses]*sem
}

// New builds a controller over cfg.
func New(cfg Config) *Controller {
	c := &Controller{}
	c.classes[Read] = newSem(cfg.Read)
	c.classes[Write] = newSem(cfg.Write)
	c.classes[Replication] = newSem(cfg.Replication)
	c.classes[Analysis] = newSem(cfg.Analysis)
	return c
}

// Acquire admits one request of class cl, waiting within ctx's deadline if
// the class is saturated but its queue has room. On success, release must be
// called exactly once. Refusals carry ErrOverloaded (queue full — shed on
// arrival) or ErrDeadline (expired while queued).
func (c *Controller) Acquire(ctx context.Context, cl Class) (release func(), err error) {
	return c.AcquireBy(ctx, cl, time.Time{})
}

// AcquireBy is Acquire with the wait bounded by deadline too (zero: none),
// which arms a timer only if the caller queues.
func (c *Controller) AcquireBy(ctx context.Context, cl Class, deadline time.Time) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	rel, err := c.classes[cl].acquire(ctx, deadline)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cl, err)
	}
	return rel, nil
}

// Stats snapshots every class's admission state.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Read:        c.classes[Read].stats(),
		Write:       c.classes[Write].stats(),
		Replication: c.classes[Replication].stats(),
		Analysis:    c.classes[Analysis].stats(),
	}
}
