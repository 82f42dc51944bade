// Package decision holds the verdict word of the authorization kernel: a
// Verdict, one lock-free, generation-tagged atomic word that lives in the
// interned command it decides (command.FPInfo), and Stats, the counters the
// engine and the session tables report under /stats' "cache" key.
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
// A positive verdict therefore survives arbitrarily long grant-only churn —
// the analogue of the positive-memo invariant in internal/core — while one
// removal invalidates every verdict in O(1) by moving the floors, with no
// scan and no locks. The session tables' compiled role bitsets
// (internal/session) are revalidated under the same two floors.
package decision

import "sync/atomic"

// Verdict is one cached verdict in a single atomic word, from high to low
// bits: the generation it was computed at (41 bits), a valid bit, the allowed
// bit and the justification privilege id (21 bits; the interner caps ids at
// 2^20). A verdict whose generation or id does not fit is not stored. The
// zero value is empty. Lock-free and allocation-free: one load reads the
// whole verdict.
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

// Stats is a point-in-time snapshot of a verdict store's counters, the
// "cache" block of /stats.
type Stats struct {
	Slots     int    `json:"slots"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
}
