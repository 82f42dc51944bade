package loadgen

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Failure classes a Target reports; anything else is a hard error. Every
// class counts as a failed op.
var (
	// ErrShed: the server refused the op for capacity (overloaded, deadline,
	// unavailable).
	ErrShed = errors.New("loadgen: shed by overload protection")
	// ErrStale: the server could not honour the op's min_generation, or
	// answered at a generation below the op's token.
	ErrStale = errors.New("loadgen: generation below the op's token")
	// ErrWrong: an answer differed from the generator-known verdict.
	ErrWrong = errors.New("loadgen: wrong decision")
)

// Target is the system under load. Do executes op — its read-your-writes
// follow-up when ryw is set — carrying minGen as min_generation (0 = none),
// checks every verdict against the stream's known answers, and returns the
// generation the response carried. It must be safe for concurrent use.
type Target interface {
	Do(op *Op, ryw bool, minGen uint64) (gen uint64, err error)
}

// Tokens holds each tenant's highest acknowledged write generation: the
// read-your-writes tokens, and after a run the generations the durability
// audit re-reads.
type Tokens []atomic.Uint64

// Ack raises the tenant's token to gen.
func (t Tokens) Ack(tenant int32, gen uint64) {
	for {
		cur := t[tenant].Load()
		if gen <= cur || t[tenant].CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Failures counts failed ops by class.
type Failures struct {
	Errors  int64 // hard errors (transport, unexpected status)
	Shed    int64
	Stale   int64
	Wrong   int64
	Dropped int64 // scheduled but never issued before the drain deadline
}

// Total is the number of failed ops.
func (f Failures) Total() int64 { return f.Errors + f.Shed + f.Stale + f.Wrong + f.Dropped }

func (f *Failures) add(o Failures) {
	f.Errors += o.Errors
	f.Shed += o.Shed
	f.Stale += o.Stale
	f.Wrong += o.Wrong
	f.Dropped += o.Dropped
}

// tally is one goroutine's private accounting: per-window, per-kind latency
// histograms (allocated on first use), completions and failures.
type tally struct {
	hists    [][NumKinds]*Histogram
	done     int64
	fail     Failures
	firstErr error
}

func newTally(windows int) *tally {
	return &tally{hists: make([][NumKinds]*Histogram, windows)}
}

// settle classifies one finished request and, when it succeeded, records
// its latency. token is the generation the answer must have reached.
func (t *tally) settle(window int, kind Kind, lat time.Duration, gen, token uint64, err error) bool {
	if err == nil && gen < token {
		err = fmt.Errorf("answered at generation %d, token %d: %w", gen, token, ErrStale)
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrShed):
			t.fail.Shed++
		case errors.Is(err, ErrStale):
			t.fail.Stale++
		case errors.Is(err, ErrWrong):
			t.fail.Wrong++
		default:
			t.fail.Errors++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	h := t.hists[window][kind]
	if h == nil {
		h = new(Histogram)
		t.hists[window][kind] = h
	}
	h.Record(int64(lat))
	t.done++
	return true
}

// Result is the merged outcome of one open- or closed-loop phase.
type Result struct {
	// Windows holds per-kind latency histograms for each measurement window
	// (a closed-loop phase has one). Latency is nanoseconds from the op's
	// intended send time; a RYW read's, from the instant its submit was
	// acknowledged.
	Windows [][NumKinds]*Histogram
	// Late is the pacer's own lateness: the time after an op's intended send
	// time at which the generator handed it to an issuer.
	Late *Histogram
	// Attempted counts every request sent or scheduled (RYW reads included),
	// Done the ones that completed correctly.
	Attempted int64
	Done      int64
	Fail      Failures
	FirstErr  error
	Elapsed   time.Duration
	// Offered is the scheduled arrival rate of an open-loop phase (ops/s).
	Offered float64
	// Scheduled and Paced count the open-loop schedule's ops and how many of
	// them completed (RYW reads excluded): Paced/Scheduled is achieved over
	// offered.
	Scheduled int64
	Paced     int64
}

func merge(tallies []*tally, windows int) *Result {
	r := &Result{Windows: make([][NumKinds]*Histogram, windows), Late: new(Histogram)}
	for w := range r.Windows {
		for k := range r.Windows[w] {
			r.Windows[w][k] = new(Histogram)
		}
	}
	for _, t := range tallies {
		for w := range t.hists {
			for k, h := range t.hists[w] {
				r.Windows[w][k].Merge(h)
			}
		}
		r.Done += t.done
		r.Fail.add(t.fail)
		if r.FirstErr == nil {
			r.FirstErr = t.firstErr
		}
	}
	r.Attempted = r.Done + r.Fail.Total()
	return r
}

// Kind merges one kind's histograms across all windows.
func (r *Result) Kind(k Kind) *Histogram {
	h := new(Histogram)
	for w := range r.Windows {
		h.Merge(r.Windows[w][k])
	}
	return h
}

// Clock abstracts time so the pacer's properties can be tested against a
// fake. The wall clock is the nil default.
type Clock interface {
	Now() time.Time
	// SleepUntil returns at or after t.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps with nanosleep(2) rather than time.Sleep: an idle Go
// scheduler waits in epoll with millisecond granularity, which overshoots a
// short sleep by ~0.5 ms on this class of machine — several times a fast
// round trip — and intended-send-time accounting charges that overshoot to
// every op. nanosleep with the thread's timer slack lowered to 1 ns wakes
// within ~16 µs at the median without burning a core, which a spinning pacer
// would take from the daemon on a two-core box. Timer slack is per thread
// and the goroutine may have moved since its last sleep, so it is set before
// each one; the call costs well under a microsecond.
func (wallClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// OpenConfig paces an open-loop phase.
type OpenConfig struct {
	// Rate is the offered arrival rate in ops/second.
	Rate float64
	// Windows and Window split the phase into measurement windows; an op
	// belongs to the window of its intended send time.
	Windows int
	Window  time.Duration
	// ReadIssuers and WriteIssuers bound the reads and the submits in
	// flight. Submits have their own issuers so an fsync never delays the
	// hand-off of a read; with no write issuers the read issuers send the
	// submits too (one read issuer alone makes the run strictly serial).
	ReadIssuers  int
	WriteIssuers int
	// SameNode says reads are served by the node that acknowledges writes,
	// so every read must answer at or above its tenant's token even without
	// carrying it.
	SameNode bool
	// Drain bounds how long past the schedule queued ops may still be
	// issued; ops not issued by then count as dropped.
	Drain time.Duration
	Clock Clock
}

type job struct {
	i        int32
	window   int32
	intended time.Time
}

// RunOpen drives target with ops at a fixed arrival rate, whatever the
// target's speed: op i is due at start + i/Rate, one pacer goroutine hands
// it to an issuer at that intended send time, and its latency is measured
// from that time, so a stalled target is charged for the ops queued behind
// the stall (no coordinated omission). A submit's issuer sends its
// read-your-writes read the instant the submit is acknowledged.
//
// The pacer keeps an OS thread to itself. Letting issuers pace themselves
// (each sleeping until its own op is due) puts two dozen threads in
// nanosleep at once and quadruples the median on a two-core box; yielding to
// the woken issuer instead of leaving it to be stolen makes the pacer wait
// its turn in the run queue and its p99 lateness reach milliseconds.
func RunOpen(cfg OpenConfig, ops []Op, tokens Tokens, target Target) *Result {
	clk := cfg.Clock
	if clk == nil {
		clk = wallClock{}
	}
	total := min(int(cfg.Rate*cfg.Window.Seconds()*float64(cfg.Windows)), len(ops))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	// Lanes hold the whole schedule, so the pacer never blocks on a slow
	// target and its lateness stays the generator's own.
	lanes := [2]chan job{make(chan job, total), make(chan job, total)}
	issuers := [2]int{cfg.ReadIssuers, cfg.WriteIssuers}

	start := clk.Now()
	deadline := start.Add(time.Duration(cfg.Windows)*cfg.Window + cfg.Drain)
	var tallies []*tally
	var paced atomic.Int64
	var wg sync.WaitGroup
	for lane, n := range issuers {
		for range n {
			t := newTally(cfg.Windows)
			tallies = append(tallies, t)
			wg.Add(1)
			go func(ch chan job) {
				defer wg.Done()
				for j := range ch {
					if clk.Now().After(deadline) {
						t.fail.Dropped++
						continue
					}
					op := &ops[j.i]
					var token uint64
					if cfg.SameNode && op.Kind != Submit {
						token = tokens[op.Tenant].Load()
					}
					gen, err := target.Do(op, false, 0)
					acked := clk.Now()
					if !t.settle(int(j.window), op.Kind, acked.Sub(j.intended), gen, token, err) {
						continue
					}
					paced.Add(1)
					if op.Kind != Submit {
						continue
					}
					tokens.Ack(op.Tenant, gen)
					rgen, err := target.Do(op, true, gen)
					t.settle(int(j.window), RYW, clk.Now().Sub(acked), rgen, gen, err)
				}
			}(lanes[lane])
		}
	}

	late := new(Histogram)
	pacer := make(chan struct{})
	go func() {
		defer close(pacer)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < total; i++ {
			intended := start.Add(time.Duration(i) * interval)
			clk.SleepUntil(intended)
			late.Record(int64(clk.Now().Sub(intended)))
			lane := 0
			if ops[i].Kind == Submit && cfg.WriteIssuers > 0 {
				lane = 1
			}
			lanes[lane] <- job{i: int32(i), window: int32(intended.Sub(start) / cfg.Window), intended: intended}
		}
		close(lanes[0])
		close(lanes[1])
	}()
	<-pacer
	wg.Wait()

	r := merge(tallies, cfg.Windows)
	r.Late = late
	r.Elapsed = clk.Now().Sub(start)
	r.Offered = cfg.Rate
	r.Scheduled = int64(total)
	r.Paced = paced.Load()
	return r
}

// RunClosed drives target in a closed loop: workers goroutines each send the
// stream's next op as soon as their previous one completes, until d has
// passed or ops run out. It measures what the target sustains, not what
// users would see: a slow target is offered less.
func RunClosed(workers int, d time.Duration, ops []Op, tokens Tokens, sameNode bool, target Target) *Result {
	return RunClosedWindows(workers, 1, d, ops, tokens, sameNode, target)
}

// RunClosedWindows is RunClosed over windows × window, an op belonging to the
// window it was sent in, so that Result.WindowRate can tell the throughput
// of the undisturbed windows from that of the whole phase.
func RunClosedWindows(workers, windows int, window time.Duration, ops []Op, tokens Tokens, sameNode bool, target Target) *Result {
	start := time.Now()
	stop := start.Add(time.Duration(windows) * window)
	var next atomic.Int64
	tallies := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := range tallies {
		t := newTally(windows)
		tallies[w] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				sent := time.Now()
				if i >= int64(len(ops)) || sent.After(stop) {
					return
				}
				op := &ops[i]
				win := min(int(sent.Sub(start)/window), windows-1)
				var token uint64
				if sameNode && op.Kind != Submit {
					token = tokens[op.Tenant].Load()
				}
				gen, err := target.Do(op, false, 0)
				acked := time.Now()
				if !t.settle(win, op.Kind, acked.Sub(sent), gen, token, err) || op.Kind != Submit {
					continue
				}
				tokens.Ack(op.Tenant, gen)
				rgen, err := target.Do(op, true, gen)
				t.settle(win, RYW, time.Since(acked), rgen, gen, err)
			}
		}()
	}
	wg.Wait()
	r := merge(tallies, windows)
	r.Elapsed = time.Since(start)
	return r
}
