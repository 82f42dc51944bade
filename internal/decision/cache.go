// Package decision implements the lock-free, generation-tagged verdict
// stores of the authorization kernel: a Verdict, one atomic word that lives
// in the interned command it decides (command.FPInfo), is the engine's; a
// Cache, a fixed-size set-associative table of Verdicts keyed by fingerprint,
// is the session tables', whose per-(session, privilege) fingerprints are
// never reused and so have no entry to live in.
//
// Correctness never depends on eviction or freshness — every verdict carries
// the generation it was computed at, and the reader decides validity against
// its own snapshot using two watermarks maintained by the engine writer:
//
//   - posFloor: the oldest generation whose *positive* verdicts are still
//     valid. Ãφ and Definition 5 reachability are monotone in →φ, so purely
//     additive deltas (grants) preserve every allowed verdict; posFloor
//     advances only when an edge removal (or snapshot rebuild) makes the
//     policy shrink.
//   - negFloor: the oldest generation whose *negative* verdicts are still
//     valid. A grant can flip a denial to an allow, so negFloor advances on
//     every applied mutation that adds reachability; removals also advance
//     it (the conservative "everything drops on removal" rule).
//
// A positive entry therefore survives arbitrarily long grant-only churn —
// the decision-cache analogue of the positive-memo invariant in
// internal/core — while one removal invalidates every verdict in O(1) by
// moving the floors, with no scan and no locks.
package decision

import "sync/atomic"

// Verdict is one cached verdict in a single atomic word, from high to low
// bits: the generation it was computed at (41 bits), a valid bit, the allowed
// bit and the justification privilege id (21 bits; the interner caps ids at
// 2^20). A verdict whose generation or id does not fit is not stored. The
// zero value is empty. Lock-free and allocation-free, with no seqlock: one
// load reads the whole verdict.
type Verdict struct{ w atomic.Uint64 }

const (
	justBits      = 21
	allowedBit    = 1 << justBits
	validBit      = allowedBit << 1
	genShift      = justBits + 2
	maxVerdictGen = 1<<(64-genShift) - 1 // the last generation a Verdict stores
)

// Get returns the verdict as seen by a snapshot at generation gen with the
// given validity floors.
func (v *Verdict) Get(gen, posFloor, negFloor uint64) (just uint32, allowed, ok bool) {
	w := v.w.Load()
	egen := w >> genShift
	switch {
	case w&validBit == 0 || egen > gen:
		return 0, false, false // empty, or computed at a generation gen cannot see
	case w&allowedBit == 0:
		return 0, false, egen >= negFloor // a later grant may have flipped it
	case egen < posFloor:
		return 0, false, false // a later removal may have shrunk the policy
	}
	return uint32(w & (allowedBit - 1)), true, true
}

// Put stores the verdict computed at generation gen unless a newer one is
// already there, and reports whether it stored: of concurrent Puts, the one
// with the highest generation stays.
func (v *Verdict) Put(gen uint64, allowed bool, just uint32) bool {
	if gen > maxVerdictGen || just >= 1<<justBits {
		return false
	}
	w := gen<<genShift | validBit | uint64(just)
	if allowed {
		w |= allowedBit
	}
	for {
		old := v.w.Load()
		if old&validBit != 0 && old>>genShift > gen {
			return false
		}
		if v.w.CompareAndSwap(old, w) {
			return true
		}
	}
}

// ways is the set associativity: a fingerprint may live in any of `ways`
// consecutive slots of its bucket; stores evict the oldest-generation way.
const ways = 4

// DefaultSlots is the slot count session tables use unless configured
// otherwise.
const DefaultSlots = 8192

// Cache is the set-associative verdict table. The zero value and New(0) are
// valid, permanently-empty caches (every Get misses, every Put is a no-op).
//
// Slots use a per-slot sequence lock built entirely from atomics (so the
// race detector models it): writers claim a slot by CAS-ing its sequence
// from even to odd, readers discard any observation whose sequence changed
// mid-read. Readers never block, never spin and never allocate; a writer
// that loses a claim race simply drops its store (it is a cache).
type Cache struct {
	slots []slot
	mask  uint32 // bucket index mask; bucket b spans slots[b*ways : b*ways+ways]

	hits      atomic.Uint64
	misses    atomic.Uint64
	stores    atomic.Uint64
	evictions atomic.Uint64
}

// slot holds the verdict of fingerprint fp (0 when empty).
type slot struct {
	seq atomic.Uint64
	fp  atomic.Uint32
	v   Verdict
}

// New builds a cache with the given slot count, rounded up to a power of two
// multiple of the associativity. n <= 0 yields a disabled (always-miss)
// cache.
func New(n int) *Cache {
	if n <= 0 {
		return &Cache{}
	}
	buckets := 1
	for buckets*ways < n {
		buckets *= 2
	}
	return &Cache{slots: make([]slot, buckets*ways), mask: uint32(buckets - 1)}
}

// Enabled reports whether the cache can hold entries at all; callers may
// skip store-side work (witness interning) when it cannot.
func (c *Cache) Enabled() bool { return len(c.slots) != 0 }

// bucket maps a fingerprint to its first slot index. Fingerprints are dense
// small integers, so spread them with a Fibonacci multiply.
func (c *Cache) bucket(fp uint32) uint32 {
	return ((fp * 0x9E3779B1) >> 7 & c.mask) * ways
}

// Get looks up the verdict for fp as seen by a snapshot at generation gen
// with the given validity floors. It returns the justification privilege id
// and the allowed flag when a valid entry exists. Lock-free, allocation-free.
func (c *Cache) Get(fp uint32, gen, posFloor, negFloor uint64) (just uint32, allowed, ok bool) {
	if len(c.slots) == 0 || fp == 0 {
		return 0, false, false
	}
	b := c.bucket(fp)
	for i := uint32(0); i < ways; i++ {
		s := &c.slots[b+i]
		q := s.seq.Load()
		if q&1 != 0 || s.fp.Load() != fp {
			continue // mid-write, or another fingerprint's
		}
		just, allowed, ok := s.v.Get(gen, posFloor, negFloor)
		if ok && s.seq.Load() == q { // not torn
			c.hits.Add(1)
			return just, allowed, true
		}
	}
	c.misses.Add(1)
	return 0, false, false
}

// Put stores the verdict computed for fp at generation gen. Within the
// bucket it reuses fp's existing slot or an empty one, otherwise it evicts
// the oldest-generation way. A store that races with another writer on the
// same slot is dropped. Allocation-free.
func (c *Cache) Put(fp uint32, gen uint64, allowed bool, just uint32) {
	if len(c.slots) == 0 || fp == 0 {
		return
	}
	b := c.bucket(fp)
	victim := -1
	victimGen := ^uint64(0)
	for i := uint32(0); i < ways; i++ {
		s := &c.slots[b+i]
		if s.seq.Load()&1 != 0 {
			continue
		}
		if k := s.fp.Load(); k == 0 || k == fp {
			victim = int(b + i)
			break
		}
		if g := s.v.w.Load() >> genShift; g < victimGen {
			victim, victimGen = int(b+i), g
		}
	}
	if victim < 0 {
		return // whole bucket mid-write; drop the store
	}
	s := &c.slots[victim]
	q := s.seq.Load()
	if q&1 != 0 || !s.seq.CompareAndSwap(q, q+1) {
		return // lost the claim race; drop the store
	}
	if old := s.fp.Load(); old != fp {
		if old != 0 {
			c.evictions.Add(1)
		}
		s.fp.Store(fp)
		s.v.w.Store(0)
	}
	if s.v.Put(gen, allowed, just) { // a newer verdict for fp stays
		c.stores.Add(1)
	}
	s.seq.Store(q + 2)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Slots     int    `json:"slots"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
}

// Stats reads the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Slots:     len(c.slots),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
	}
}
