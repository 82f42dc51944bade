// Package ladder is the benchmark's traced run: it replays a slice of the
// workload's seeded op stream in-process, one rung at a time, recording a
// span around every call into a layer's exported functions. Rung by rung the
// calls nest — engine inside tenant inside handler inside a loopback round
// trip — so a layer's self time is its rung minus the rung beneath it, and
// the real daemon's median closes the ladder with a residual.
//
// Spans are recorded from outside the program, around the calls; spans
// inside it are a later change.
package ladder

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call: a name, the op that caused it, its parent span
// (-1 for a root) and its interval in nanoseconds since the trace began.
type Span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time: the traced rungs replay serially.
type Tracer struct {
	t0    time.Time
	Spans []Span
	// cur is the innermost open span, the parent of whatever begins next.
	cur int32
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), cur: -1} }

// Begin opens a span under the innermost open one and returns its id.
func (t *Tracer) Begin(name string, op int) int32 {
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, Span{Name: name, Op: int32(op), Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int32) time.Duration {
	s := &t.Spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
	return time.Duration(s.End - s.Start)
}

// SelfTimes returns each span's self time: its duration minus the part of
// it its direct children cover.
func SelfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// Write stores the spans as JSON.
func (t *Tracer) Write(path string) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Rung is one level of a ladder: the layer it adds and the median cost of
// an op measured at that level, everything beneath included.
type Rung struct {
	Layer string
	Total time.Duration
}

// Step is one layer's share of a ladder.
type Step struct {
	Layer string
	Self  time.Duration
}

// Subtract turns cumulative rungs (innermost first) into per-layer self
// times: each rung minus the one beneath it. Medians of separate replays can
// come out of order by noise — a thin layer's rung a hair below the one it
// wraps — so a rung is first raised to the one beneath it: self times are
// never negative, and they sum to the top rung.
func Subtract(rungs []Rung) []Step {
	steps := make([]Step, len(rungs))
	var below time.Duration
	for i, r := range rungs {
		total := max(r.Total, below)
		steps[i] = Step{Layer: r.Layer, Self: total - below}
		below = total
	}
	return steps
}

// median of durations; 0 when empty.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// quantile q of durations by nearest rank; 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(len(s)-1, int(q*float64(len(s))))]
}
