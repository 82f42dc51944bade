package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

var testSpec = Spec{
	Tenants: 8, Roles: 16, Users: 64, Skew: 1.1,
	SubmitFrac: 0.10, CheckFrac: 0.30, Batch: 4, DenyFrac: 0.25, ReadSet: 256,
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, err := Generate(testSpec, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(testSpec, 7, 5000)
	c, _ := Generate(testSpec, 8, 5000)
	if a.Hash != b.Hash {
		t.Errorf("same seed, different streams: %x vs %x", a.Hash, b.Hash)
	}
	if a.Hash == c.Hash {
		t.Errorf("different seeds, same stream %x", a.Hash)
	}
	for i := range a.Ops {
		ca, wa := a.Cmds(&a.Ops[i])
		cb, wb := b.Cmds(&b.Ops[i])
		if len(ca) != len(cb) || len(wa) != len(wb) || ca[0].Key() != cb[0].Key() {
			t.Fatalf("op %d differs between two generations of seed 7", i)
		}
	}
}

func TestStreamKnowsItsAnswers(t *testing.T) {
	s, err := Generate(testSpec, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	var allow, deny, submits int
	next := make([]int32, testSpec.Tenants)
	for i := range s.Ops {
		op := &s.Ops[i]
		cmds, want := s.Cmds(op)
		if op.Kind == Submit {
			submits++
			if op.Sub != next[op.Tenant] {
				t.Fatalf("tenant %d: submit %d follows %d", op.Tenant, op.Sub, next[op.Tenant]-1)
			}
			next[op.Tenant]++
			if cmds[0].Actor != adminUser {
				t.Fatalf("submit by %s would be denied", cmds[0].Actor)
			}
			continue
		}
		if op.Kind != Authorize {
			continue
		}
		if len(cmds) != testSpec.Batch {
			t.Fatalf("batch of %d, want %d", len(cmds), testSpec.Batch)
		}
		for j, c := range cmds {
			// The administrator's grants are allowed, a member's denied.
			if want[j] != (c.Actor == adminUser) {
				t.Fatalf("%v marked allow=%v", c, want[j])
			}
			if want[j] {
				allow++
			} else {
				deny++
			}
		}
	}
	if submits == 0 || allow == 0 || deny == 0 {
		t.Errorf("stream lacks a kind: %d submits, %d allowed and %d denied commands", submits, allow, deny)
	}
	if share := float64(deny) / float64(allow+deny); share < 0.20 || share > 0.30 {
		t.Errorf("deny share %.2f, spec asks 0.25", share)
	}
}

func TestStreamRefusesToWrap(t *testing.T) {
	spec := testSpec
	spec.Tenants, spec.Roles, spec.Users, spec.ReadSet, spec.SubmitFrac = 1, 2, 2, 4, 1
	if _, err := Generate(spec, 1, 5); err == nil {
		t.Error("5 submits over 4 distinct grants must be refused: a repeated grant is neither logged nor fsynced")
	}
}

func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	vals := make([]int64, 200000)
	for i := range vals {
		// Log-uniform over 1 µs .. 100 ms, the range latencies live in.
		vals[i] = int64(1000 * math.Pow(1e5, rng.Float64()))
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if got < exact || float64(got-exact) > 0.01*float64(exact) {
			t.Errorf("q%.3f: histogram %d, exact %d: error %.2f%% (must be 0..1%%, never under)", q, got, exact, 100*float64(got-exact)/float64(exact))
		}
	}
	var a, b Histogram
	for i, v := range vals {
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Quantile(0.99) != h.Quantile(0.99) || a.Count() != h.Count() {
		t.Error("merging two halves differs from recording the whole")
	}
}

func TestWindowAggregators(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd median %v", got)
	}
	if got := Median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("even median %v", got)
	}
	if got := Quantile([]float64{50, 10, 30, 20, 40}, 0.25); got != 20 {
		t.Errorf("lower quartile %v", got)
	}
	if got := Quantile([]float64{10, 20}, 0.75); got != 17.5 {
		t.Errorf("interpolated quartile %v", got)
	}
	// Eight windows, five of them disturbed — one by a stall, four by a
	// neighbour that slows every op: the quiet windows set the reported p50
	// and p99, and the throughput is that of the undisturbed windows.
	r := &Result{Windows: make([][NumKinds]*Histogram, 8)}
	for w := range r.Windows {
		for k := range r.Windows[w] {
			r.Windows[w][k] = new(Histogram)
		}
		n := 1000
		if w >= 4 {
			n = 700
		}
		for i := 0; i < n; i++ {
			v := int64(100_000 + i)
			if w == 2 && i >= 900 {
				v = 80_000_000 // an 80 ms box stall
			}
			if w >= 4 {
				v *= 2
			}
			r.Windows[w][Authorize].Record(v)
		}
	}
	p50, n := r.WindowQuantile(0.50, Authorize, Check)
	if n != 6800 {
		t.Errorf("samples %d", n)
	}
	if p50 > 101_000 {
		t.Errorf("disturbed windows set the p50: %.0f ns", p50)
	}
	if p99, _ := r.WindowQuantile(0.99, Authorize, Check); p99 > 102_000 {
		t.Errorf("disturbed windows set the p99: %.0f ns", p99)
	}
	if merged := r.Kind(Authorize).Quantile(0.99); merged < 80_000_000 {
		t.Errorf("the merged p99 %d should show the stall the windowed one ignores", merged)
	}
	if rate, done := r.WindowRate(500 * time.Millisecond); rate != 2000 || done != 6800 {
		t.Errorf("window rate %v ops/s over %d ops, want the quiet windows' 2000 over 6800", rate, done)
	}
}

// fixedTarget answers every op at once, correctly.
type fixedTarget struct {
	mu    sync.Mutex
	stall map[int32]time.Duration // by tenant, consumed once
}

func (f *fixedTarget) Do(op *Op, ryw bool, minGen uint64) (uint64, error) {
	f.mu.Lock()
	d := f.stall[op.Tenant]
	delete(f.stall, op.Tenant)
	f.mu.Unlock()
	time.Sleep(d)
	return minGen, nil
}

func TestStalledTargetIsChargedToLaterOps(t *testing.T) {
	// 2000 ops/s through one issuer; the op to tenant 1 stalls 100 ms. The
	// ~200 ops that come due during the stall wait behind it, and because
	// latency runs from the intended send time they are all slow — a
	// generator that timed from the actual send would report one slow op.
	ops := make([]Op, 800)
	ops[100].Tenant = 1
	target := &fixedTarget{stall: map[int32]time.Duration{1: 100 * time.Millisecond}}
	res := RunOpen(OpenConfig{Rate: 2000, Windows: 1, Window: 400 * time.Millisecond, ReadIssuers: 1, WriteIssuers: 1, Drain: time.Second},
		ops, make(Tokens, 2), target)
	if res.Fail.Total() != 0 || res.Paced != 800 {
		t.Fatalf("paced %d of %d, failures %+v", res.Paced, res.Scheduled, res.Fail)
	}
	h := res.Kind(Authorize)
	if h.Quantile(0.90) < int64(25*time.Millisecond) {
		t.Errorf("p90 %v: the ops queued behind a 100 ms stall were not charged for it", time.Duration(h.Quantile(0.90)))
	}
	if h.Quantile(0.50) > int64(20*time.Millisecond) {
		t.Errorf("p50 %v: ops before the stall should be fast", time.Duration(h.Quantile(0.50)))
	}
	if res.Late.Quantile(0.5) > int64(5*time.Millisecond) {
		t.Errorf("the stall leaked into generator lateness: p50 %v", time.Duration(res.Late.Quantile(0.5)))
	}
}

// overshootClock is a fake clock only the pacer moves: SleepUntil jumps to
// the requested time, overshooting every 50th call by 2 ms.
type overshootClock struct {
	mu    sync.Mutex
	now   time.Time
	calls int
}

func (c *overshootClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *overshootClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if t.After(c.now) {
		c.now = t
	}
	if c.calls%50 == 0 {
		c.now = c.now.Add(2 * time.Millisecond)
	}
}

func TestGeneratorLatenessIsReported(t *testing.T) {
	clk := &overshootClock{now: time.Unix(1000, 0)}
	ops := make([]Op, 1000)
	res := RunOpen(OpenConfig{Rate: 100, Windows: 1, Window: 10 * time.Second, ReadIssuers: 2, WriteIssuers: 1, Drain: time.Hour, Clock: clk},
		ops, make(Tokens, 1), &fixedTarget{})
	if res.Late.Count() != 1000 {
		t.Fatalf("lateness samples %d, want one per op", res.Late.Count())
	}
	if p50 := res.Late.Quantile(0.5); p50 != 0 {
		t.Errorf("late p50 %d ns, the fake pacer is on time for 49 ops in 50", p50)
	}
	p99 := time.Duration(res.Late.Quantile(0.99))
	if p99 < 1900*time.Microsecond || p99 > 2100*time.Microsecond {
		t.Errorf("late p99 %v, want the 2 ms overshoot of every 50th wake-up", p99)
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	s, err := Generate(testSpec, 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make(Tokens, testSpec.Tenants)
	res := RunClosed(4, time.Minute, s.Ops, tokens, true, &fixedTarget{})
	submits := 0
	for i := range s.Ops {
		if s.Ops[i].Kind == Submit {
			submits++
		}
	}
	if res.Done != int64(len(s.Ops)+submits) || res.Fail.Total() != 0 {
		t.Errorf("done %d, want every op plus one RYW read per submit (%d); failures %+v", res.Done, len(s.Ops)+submits, res.Fail)
	}
	if res.Kind(RYW).Count() != int64(submits) {
		t.Errorf("%d RYW reads for %d submits", res.Kind(RYW).Count(), submits)
	}
}

func TestAnswerBelowTokenIsStale(t *testing.T) {
	tokens := make(Tokens, 1)
	tokens.Ack(0, 9)
	tokens.Ack(0, 4) // never lowers
	if tokens[0].Load() != 9 {
		t.Fatalf("token %d", tokens[0].Load())
	}
	// fixedTarget echoes minGen (0 for a plain read): on the writing node a
	// read answered below the tenant's acknowledged generation is stale.
	res := RunClosed(1, time.Minute, make([]Op, 10), tokens, true, &fixedTarget{})
	if res.Fail.Stale != 10 || res.Done != 0 {
		t.Errorf("stale %d done %d, want all 10 reads stale", res.Fail.Stale, res.Done)
	}
}
