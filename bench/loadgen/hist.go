// Package loadgen is the reference benchmark's own load generator: seeded
// op streams with generator-known answers, an open-loop pacer that times
// every op from its intended send time, a closed-loop saturation driver, a
// log-bucketed histogram and the median-of-windows aggregator. It started as
// a copy of internal/workload's GenServeOps/RunOpenLoop/Histogram and shares
// no code with it since, so the program and the benchmark can change
// independently.
package loadgen

import (
	"math"
	"math/bits"
)

// Histogram is a log-bucketed latency histogram: 128 linear sub-buckets per
// power of two, so a reported quantile is at most 1/128 (0.8 %) above the
// recorded value. Values are nanoseconds. The zero value is ready to use; a
// Histogram is not safe for concurrent use — give each goroutine its own and
// Merge afterwards (bucket counts add, so merging is exact).
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits
	// Values below 2*histSubCount get exact unit buckets; each remaining
	// binary order of magnitude up to 2^62 contributes histSubCount buckets.
	histBuckets = (62-histSubBits)*histSubCount + 2*histSubCount
)

func bucketIndex(v int64) int {
	if v < 2*histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	return exp<<histSubBits + int(v>>uint(exp))
}

// bucketMax is the largest value mapping to bucket idx: the value a quantile
// falling in the bucket reports, so a latency is never under-reported.
func bucketMax(idx int) int64 {
	if idx < 2*histSubCount {
		return int64(idx)
	}
	exp := idx>>histSubBits - 1
	m := int64(idx - exp<<histSubBits)
	return (m+1)<<uint(exp) - 1
}

// Record adds one observation; negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.n }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (sums are kept outside the buckets).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Merge folds other into h; other is unchanged.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// Quantile returns the value at quantile q in [0, 1]: the smallest bucket
// upper bound with at least ceil(q*n) observations at or below it, clamped
// to the observed extremes. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMax(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
