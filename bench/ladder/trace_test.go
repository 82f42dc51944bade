package ladder

import (
	"testing"
	"time"
)

func TestSubtractClosesTheLadder(t *testing.T) {
	cases := [][]Rung{
		{{"engine", 2 * time.Microsecond}, {"tenant", 3 * time.Microsecond}, {"wire", 5 * time.Microsecond}, {"transport", 80 * time.Microsecond}},
		// Medians of separate replays out of order by noise: a thin layer's
		// rung a hair below the one it wraps.
		{{"engine", 1340 * time.Microsecond}, {"tenant", 1300 * time.Microsecond}, {"wire", 1350 * time.Microsecond}},
		{{"engine", 0}, {"tenant", 0}},
	}
	for _, rungs := range cases {
		steps := Subtract(rungs)
		if len(steps) != len(rungs) {
			t.Fatalf("%d steps for %d rungs", len(steps), len(rungs))
		}
		var sum, top time.Duration
		for i, s := range steps {
			if s.Self < 0 {
				t.Errorf("%s: negative self time %v", s.Layer, s.Self)
			}
			if s.Layer != rungs[i].Layer {
				t.Errorf("step %d is %s, rung is %s", i, s.Layer, rungs[i].Layer)
			}
			sum += s.Self
			top = max(top, rungs[i].Total)
		}
		if sum != top {
			t.Errorf("self times sum to %v, the top rung is %v", sum, top)
		}
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := NewTracer()
	submit := tr.Begin("tenant.SubmitBatchCtx", 0)
	write := tr.Begin("storage.write", -1)
	tr.End(write)
	sync := tr.Begin("storage.fsync", -1)
	tr.End(sync)
	tr.End(submit)
	other := tr.Begin("tenant.AuthorizeBatchInto", 1)
	tr.End(other)
	// Fix the clock readings so the arithmetic is exact.
	tr.Spans[submit].Start, tr.Spans[submit].End = 0, 1000
	tr.Spans[write].Start, tr.Spans[write].End = 100, 150
	tr.Spans[sync].Start, tr.Spans[sync].End = 200, 900
	tr.Spans[other].Start, tr.Spans[other].End = 1000, 1010

	if tr.Spans[write].Parent != submit || tr.Spans[sync].Parent != submit || tr.Spans[other].Parent != -1 {
		t.Fatalf("parents: %+v", tr.Spans)
	}
	self := SelfTimes(tr.Spans)
	if self[submit] != 250 || self[write] != 50 || self[sync] != 700 || self[other] != 10 {
		t.Errorf("self times %v, want [250 50 700 10]", self)
	}
	var sum time.Duration
	for _, s := range self[:3] {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("a span's self time and its children's sum to %v, the span lasted 1000", sum)
	}
}
