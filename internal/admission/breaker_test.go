package admission

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_000_000, 0)} }
func testBreaker(clk *fakeClock, thr int) *Breaker {
	return NewBreaker(BreakerOptions{
		Threshold:   thr,
		Cooldown:    time.Second,
		MaxCooldown: 8 * time.Second,
		JitterSeed:  42,
		Clock:       clk.Now,
	})
}

// The breaker trips on the Threshold-th consecutive failure, not before,
// and a success in between resets the streak.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3)
	b.Failure()
	b.Failure()
	b.Success() // streak broken
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("open before threshold")
	}
	b.Failure() // third consecutive
	if !b.Open() {
		t.Fatal("not open after threshold consecutive failures")
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if b.RetryAfter() <= 0 {
		t.Fatal("RetryAfter should be positive while open")
	}
	if st := b.Stats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// After the cooldown, exactly one caller is admitted as the half-open
// probe; its success closes the breaker, other callers stay refused until
// the verdict.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	b.Failure()
	if !b.Open() {
		t.Fatal("threshold-1 breaker should trip on first failure")
	}
	// Jittered window is within [cool/2, 3*cool/2); advancing past that
	// upper bound always clears it.
	clk.Advance(1500 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted after cooldown: %v", err)
	}
	// Probe in flight: everyone else still refused, and the peek stays
	// open so write-forwarding keeps shedding.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second caller during probe = %v, want ErrBreakerOpen", err)
	}
	if !b.Open() {
		t.Fatal("Open() should stay true while the probe is in flight")
	}
	b.Success()
	if b.Open() {
		t.Fatal("breaker still open after successful probe")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
}

// A failed probe re-trips with a doubled cooldown (capped at MaxCooldown).
func TestBreakerFailedProbeDoublesCooldown(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	b.Failure() // trip #1, window from 1s cooldown
	first := b.RetryAfter()
	clk.Advance(1500 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Failure() // failed probe: trip #2, window from 2s cooldown
	second := b.RetryAfter()
	if second <= first {
		t.Fatalf("cooldown did not grow: first %v, second %v", first, second)
	}
	if st := b.Stats(); st.Trips != 2 {
		t.Fatalf("trips = %d, want 2", st.Trips)
	}
}

// The jittered windows are deterministic per seed — a chaos scenario
// replays bit-for-bit.
func TestBreakerJitterDeterministic(t *testing.T) {
	mk := func() time.Duration {
		clk := newFakeClock()
		b := testBreaker(clk, 1)
		b.Failure()
		return b.RetryAfter()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same seed, different windows: %v vs %v", a, b)
	}
}

// Reset (the repoint path) forgets everything.
func TestBreakerReset(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	b.Failure()
	if !b.Open() {
		t.Fatal("not open")
	}
	b.Reset()
	if b.Open() {
		t.Fatal("open after reset")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("reset breaker refused: %v", err)
	}
	if st := b.Stats(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// A nil breaker passes everything — unconfigured call sites need no
// conditionals.
func TestNilBreaker(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatalf("nil Allow = %v", err)
	}
	b.Success()
	b.Failure()
	b.Reset()
	if b.Open() {
		t.Fatal("nil breaker open")
	}
	if st := b.Stats(); st.State != "none" {
		t.Fatalf("nil stats = %+v", st)
	}
}
