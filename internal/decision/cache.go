// Package decision implements a lock-free, generation-tagged verdict cache
// for the authorization kernel: a fixed-size, power-of-two, set-associative
// table mapping a command fingerprint to the (allowed, justification)
// verdict computed at some engine generation.
//
// Correctness never depends on eviction or freshness — every entry carries
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
// internal/core — while one removal invalidates the whole cache in O(1) by
// moving the floors, with no scan and no locks.
//
// Slots use a per-slot sequence lock built entirely from atomics (so the
// race detector models it): writers claim a slot by CAS-ing its sequence
// from even to odd, readers discard any observation whose sequence changed
// mid-read. Readers never block, never spin and never allocate; a writer
// that loses a claim race simply drops its store (it is a cache).
package decision

import "sync/atomic"

// ways is the set associativity: a fingerprint may live in any of `ways`
// consecutive slots of its bucket; stores evict the oldest-generation way.
const ways = 4

// DefaultSlots is the slot count engines use unless configured otherwise.
const DefaultSlots = 8192

// Cache is the sharded verdict cache. The zero value and New(0) are valid,
// permanently-empty caches (every Get misses, every Put is a no-op).
type Cache struct {
	slots []slot
	mask  uint32 // bucket index mask; bucket b spans slots[b*ways : b*ways+ways]

	hits      atomic.Uint64
	misses    atomic.Uint64
	stores    atomic.Uint64
	evictions atomic.Uint64
}

// slot holds one verdict: key packs the fingerprint (low 32 bits, nonzero
// when occupied) with the justification privilege id (high 32 bits); gen
// packs the computing generation (high 63 bits) with the allowed bit.
type slot struct {
	seq atomic.Uint64
	key atomic.Uint64
	gen atomic.Uint64
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

// Reset empties the cache and zeroes its counters so it can serve a new
// owner: afterwards every Get misses until that owner Puts. Unlike Get and
// Put it needs the caller to be the only user, which a tenant's shutdown
// guarantees (unlinked, nothing in flight, every snapshot closed). Recycling
// the table costs one clear of memory that is already mapped.
func (c *Cache) Reset() {
	clear(c.slots)
	c.hits.Store(0)
	c.misses.Store(0)
	c.stores.Store(0)
	c.evictions.Store(0)
}

// Slots reports the cache capacity in slots (0 = disabled).
func (c *Cache) Slots() int { return len(c.slots) }

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
		if q&1 != 0 {
			continue // mid-write
		}
		k := s.key.Load()
		if uint32(k) != fp {
			continue
		}
		g := s.gen.Load()
		if s.seq.Load() != q {
			continue // torn read
		}
		egen := g >> 1
		if egen > gen {
			continue // computed at a generation this snapshot cannot see
		}
		if g&1 == 1 {
			if egen < posFloor {
				continue // a removal since then may have shrunk the policy
			}
			c.hits.Add(1)
			return uint32(k >> 32), true, true
		}
		if egen < negFloor {
			continue // a grant since then may have flipped the denial
		}
		c.hits.Add(1)
		return 0, false, true
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
		k := s.key.Load()
		if k == 0 || uint32(k) == fp {
			victim = int(b + i)
			break
		}
		if g := s.gen.Load() >> 1; g < victimGen {
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
	oldKey := s.key.Load()
	if oldKey != 0 && uint32(oldKey) == fp && s.gen.Load()>>1 > gen {
		// A newer verdict for the same command is already here; keep it.
		s.seq.Store(q + 2)
		return
	}
	if oldKey != 0 && uint32(oldKey) != fp {
		c.evictions.Add(1)
	}
	g := gen << 1
	if allowed {
		g |= 1
	}
	s.key.Store(uint64(fp) | uint64(just)<<32)
	s.gen.Store(g)
	s.seq.Store(q + 2)
	c.stores.Add(1)
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
