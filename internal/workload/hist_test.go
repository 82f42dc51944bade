package workload

import (
	"fmt"
	"math/rand"
	"testing"
)

// Small values get exact unit buckets; larger ones land in a bucket whose
// width never exceeds 1/histSubCount of the value.
func TestHistBucketBoundaryExactness(t *testing.T) {
	// Every value below 2*histSubCount is its own bucket.
	for v := int64(0); v < 2*histSubCount; v++ {
		if got := bucketMax(bucketIndex(v)); got != v {
			t.Fatalf("value %d landed in bucket capped at %d, want exact", v, got)
		}
	}
	// Bucket boundaries: the first value of each power of two starts a fresh
	// sub-bucket run and indexes stay monotone and contiguous.
	prev := bucketIndex(0) - 1
	for v := int64(0); v < 1<<20; v++ {
		idx := bucketIndex(v)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucketIndex(%d) = %d, previous %d: not monotone-contiguous", v, idx, prev)
		}
		prev = idx
		if bucketMax(idx) < v {
			t.Fatalf("bucketMax(%d) = %d < recorded value %d: quantiles would under-report", idx, bucketMax(idx), v)
		}
	}
	// Relative bucket error is bounded by 1/histSubCount.
	for _, v := range []int64{100, 1_000, 50_000, 1_000_000, 123_456_789, 1 << 40, 1<<62 + 12345} {
		up := bucketMax(bucketIndex(v))
		if up < v {
			t.Fatalf("bucketMax under value: %d < %d", up, v)
		}
		if float64(up-v) > float64(v)/histSubCount {
			t.Fatalf("value %d reports %d: error %.4f%% exceeds bound", v, up, 100*float64(up-v)/float64(v))
		}
	}
}

func TestHistMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]*Histogram, 4)
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 1000; j++ {
			parts[i].Record(rng.Int63n(1 << uint(10+4*i)))
		}
	}
	// ((a+b)+(c+d)) vs (((a+b)+c)+d) vs reverse order.
	ab := &Histogram{}
	ab.Merge(parts[0])
	ab.Merge(parts[1])
	cd := &Histogram{}
	cd.Merge(parts[2])
	cd.Merge(parts[3])
	tree := &Histogram{}
	tree.Merge(ab)
	tree.Merge(cd)

	chain := &Histogram{}
	for _, p := range parts {
		chain.Merge(p)
	}
	rev := &Histogram{}
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	for _, other := range []*Histogram{chain, rev} {
		if tree.n != other.n || tree.sum != other.sum || tree.min != other.min || tree.max != other.max {
			t.Fatalf("merge shape changed aggregates: %+v vs %+v", tree.counts[:0], other.counts[:0])
		}
		if tree.counts != other.counts {
			t.Fatal("merge shape changed bucket counts")
		}
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if tree.Quantile(q) != chain.Quantile(q) {
			t.Fatalf("q=%v differs across merge shapes", q)
		}
	}
}

func TestHistQuantileMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 10_000; i++ {
		// Mix of magnitudes, including repeats and zeros.
		switch i % 3 {
		case 0:
			h.Record(rng.Int63n(100))
		case 1:
			h.Record(rng.Int63n(1_000_000))
		default:
			h.Record(rng.Int63n(1 << 40))
		}
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.001 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %d < Quantile at lower q = %d", q, v, prev)
		}
		prev = v
	}
	if h.Quantile(0) != h.Min() {
		t.Fatalf("Quantile(0) = %d, want min %d", h.Quantile(0), h.Min())
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %d, want max %d", h.Quantile(1), h.Max())
	}
}

// A fixed seed must serialise to the same buckets and quantiles on every run
// and platform — results built from histograms are reproducible.
func TestHistDeterministicSeedGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := &Histogram{}
	for i := 0; i < 512; i++ {
		h.Record(rng.Int63n(1_000_000))
	}
	got := fmt.Sprintf("n=%d sum=%d min=%d max=%d p50=%d p99=%d p999=%d buckets=%d first=%v",
		h.Count(), h.sum, h.Min(), h.Max(),
		h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999),
		len(h.buckets()), h.buckets()[0])
	const want = "n=512 sum=267113495 min=2972 max=999809 p50=557055 p99=999423 p999=999809 buckets=133 first=[3007 1]"
	if got != want {
		t.Fatalf("golden mismatch:\n got  %s\n want %s", got, want)
	}
}

func TestHistEmptyAndZero(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps
	h.Record(0)
	if h.Max() != 0 || h.Count() != 2 || h.Quantile(1) != 0 {
		t.Fatalf("zero clamp broken: max=%d n=%d", h.Max(), h.Count())
	}
}
