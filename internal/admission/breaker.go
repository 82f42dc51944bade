package admission

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrBreakerOpen is the fast-local-failure a tripped Breaker returns in
// place of a doomed upstream call.
var ErrBreakerOpen = errors.New("admission: circuit breaker open")

// BreakerOptions configures a Breaker. The zero value gets sane defaults.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// (default 5).
	Threshold int
	// Cooldown is the initial open window before a half-open probe is
	// allowed (default 500ms). Each re-trip doubles it, jittered, up to
	// MaxCooldown.
	Cooldown time.Duration
	// MaxCooldown caps the doubling (default 30s).
	MaxCooldown time.Duration
	// JitterSeed seeds the cooldown jitter so a failure scenario replays
	// deterministically; 0 derives a seed from the clock. Mirrors
	// replication.FollowerOptions.JitterSeed.
	JitterSeed int64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerStats is the breaker's observable state for /stats.
type BreakerStats struct {
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures"`
	Trips    uint64 `json:"trips"`
	// RetryAfterMs is how long until the next half-open probe is allowed
	// (0 when closed or probing now).
	RetryAfterMs int64 `json:"retry_after_ms"`
}

// Breaker is a circuit breaker shared between the follower's pull/bootstrap
// client and the server's write-forwarding path: after Threshold consecutive
// upstream failures it opens, turning every would-be upstream call into one
// fast local error until a jittered cooldown elapses; then a single
// half-open probe decides whether to close again or re-trip with a doubled
// cooldown. All methods are safe for concurrent use and nil-safe, so call
// sites need no breaker-configured conditionals.
type Breaker struct {
	opts BreakerOptions

	mu    sync.Mutex
	rng   *rand.Rand
	state breakerState
	// fails counts consecutive failures since the last success.
	fails int
	trips uint64
	// cool is the next open window; doubles per trip up to MaxCooldown.
	cool time.Duration
	// until is when the current open window ends.
	until time.Time
}

// NewBreaker builds a breaker with opts (zero fields defaulted).
func NewBreaker(opts BreakerOptions) *Breaker {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 500 * time.Millisecond
	}
	if opts.MaxCooldown <= 0 {
		opts.MaxCooldown = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = opts.Clock().UnixNano()
	}
	return &Breaker{opts: opts, rng: rand.New(rand.NewSource(seed)), cool: opts.Cooldown}
}

// Allow asks permission for one upstream call. Closed passes everything;
// open fails fast until the cooldown elapses, at which point exactly one
// caller is admitted as the half-open probe (its Success/Failure verdict
// closes or re-trips the breaker); half-open fails everyone but the probe.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return nil
	case stateOpen:
		if wait := b.until.Sub(b.opts.Clock()); wait > 0 {
			return fmt.Errorf("retry in %v: %w", wait.Round(time.Millisecond), ErrBreakerOpen)
		}
		// Cooldown over: this caller becomes the probe.
		b.state = stateHalfOpen
		return nil
	default: // half-open, probe already in flight
		return fmt.Errorf("probe in flight: %w", ErrBreakerOpen)
	}
}

// Success records an upstream call that got an answer; it closes the
// breaker and resets the failure streak and cooldown.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = stateClosed
	b.fails = 0
	b.cool = b.opts.Cooldown
	b.mu.Unlock()
}

// Failure records an upstream transport failure. The Threshold-th
// consecutive failure — or any failed half-open probe — trips the breaker
// for a jittered, doubling cooldown.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state != stateHalfOpen && b.fails < b.opts.Threshold {
		return
	}
	b.state = stateOpen
	b.trips++
	// Spread the window over [cool/2, 3*cool/2) so a fleet of breakers
	// tripped by one upstream outage does not probe in lockstep.
	window := b.cool/2 + time.Duration(b.rng.Int63n(int64(b.cool)))
	b.until = b.opts.Clock().Add(window)
	if b.cool *= 2; b.cool > b.opts.MaxCooldown {
		b.cool = b.opts.MaxCooldown
	}
}

// Open reports whether the breaker is currently refusing calls — the
// non-consuming peek the write-forwarding path uses to answer 503 fast
// instead of issuing a 307 toward a dead upstream. It stays true while a
// half-open probe is in flight: redirecting clients before the probe
// verdict would stampede a barely-recovered upstream.
func (b *Breaker) Open() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateOpen:
		return b.opts.Clock().Before(b.until)
	case stateHalfOpen:
		return true
	default:
		return false
	}
}

// RetryAfter is how long until the next half-open probe may run (0 when
// closed, or when the cooldown already elapsed).
func (b *Breaker) RetryAfter() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateOpen {
		return 0
	}
	if wait := b.until.Sub(b.opts.Clock()); wait > 0 {
		return wait
	}
	return 0
}

// Reset forgets all failure history — called when the upstream changes
// (repoint), since the new upstream inherits none of the old one's faults.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = stateClosed
	b.fails = 0
	b.cool = b.opts.Cooldown
	b.until = time.Time{}
	b.mu.Unlock()
}

// Stats snapshots the breaker for /stats.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: "none"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{State: b.state.String(), Failures: b.fails, Trips: b.trips}
	if b.state == stateOpen {
		if wait := b.until.Sub(b.opts.Clock()); wait > 0 {
			st.RetryAfterMs = wait.Milliseconds()
		}
	}
	return st
}
