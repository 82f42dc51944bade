package workload

import (
	"math"
	"math/bits"
)

// Histogram is a dependency-free HDR-style latency histogram: log-bucketed
// with histSubCount linear sub-buckets per power of two, so any recorded
// value lands in a bucket whose width is at most 1/histSubCount of its
// magnitude (~3% worst-case relative error at 32 sub-buckets). Values are
// dimensionless int64s — the load harness records nanoseconds. The zero
// value is ready to use. A Histogram is not safe for concurrent use; give
// each worker goroutine its own and Merge them afterwards (merging is exact:
// bucket counts add, so quantiles over the merge equal quantiles over the
// concatenated streams up to bucket resolution).
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits fixes the per-power-of-two resolution: 2^histSubBits linear
	// sub-buckets per binary order of magnitude.
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// histBuckets covers every non-negative int64: values below 2*histSubCount
	// get exact unit buckets, and each of the remaining binary orders of
	// magnitude (up to 2^62..2^63) contributes histSubCount sub-buckets.
	histBuckets = (62-histSubBits)*histSubCount + 2*histSubCount
)

// bucketIndex maps a non-negative value to its bucket. Values below
// 2*histSubCount map to themselves (exact); above, the top histSubBits+1
// significant bits select the bucket, giving monotone, contiguous indexes.
func bucketIndex(v int64) int {
	if v < 2*histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	return exp<<histSubBits + int(v>>uint(exp))
}

// bucketMax returns the largest value mapping to bucket idx — the value a
// quantile falling in the bucket reports (never under-reporting a latency).
func bucketMax(idx int) int64 {
	if idx < 2*histSubCount {
		return int64(idx)
	}
	exp := idx>>histSubBits - 1
	m := int64(idx - exp<<histSubBits)
	return (m+1)<<uint(exp) - 1
}

// Record adds one observation. Negative values clamp to zero (the harness
// can observe a sub-tick completion under a coarse clock).
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

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean of the recorded values (sums are
// tracked outside the buckets, so the mean has no bucketing error).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Merge folds other into h (other is unchanged). Merge is commutative and
// associative: any merge tree over the same worker histograms yields
// identical counts, so parallel harness results are deterministic.
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
// upper bound v such that at least ceil(q*n) observations are <= v, clamped
// to the observed min/max so exact extremes survive bucketing. Quantile is
// monotone in q. An empty histogram reports 0.
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

// buckets returns the non-empty (bucketMax, count) pairs in value order
// (bucketMax is monotone in the index) — the golden-test serialisation.
func (h *Histogram) buckets() [][2]int64 {
	var out [][2]int64
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, [2]int64{bucketMax(i), c})
		}
	}
	return out
}
