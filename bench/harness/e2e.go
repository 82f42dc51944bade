package harness

import (
	"fmt"
	"strings"
	"time"

	"adminrefine/bench/loadgen"
	"adminrefine/bench/workload"
)

// Run is the outcome of one run of one workload: the metrics of the mode it
// ran in, the request accounting, and what the validity guards saw.
type Run struct {
	Workload string
	// Metrics holds the values by catalog name (package report has units,
	// directions and bounds); Samples the sample count behind a percentile.
	Metrics map[string]float64
	Samples map[string]int64
	// Attempted and Failed count requests over every phase, warm-up and the
	// closing audit included. Failed is errors + shed + dropped + stale +
	// wrong decisions + audit misses.
	Attempted int64
	Failed    int64
	FirstErr  string
	// Invalid lists why the numbers should not be trusted (generator late,
	// load not delivered, a daemon wrote to stderr); empty for a valid run.
	Invalid []string
	// StreamHash identifies the op stream that was replayed.
	StreamHash uint64
	Rate       float64
	DaemonArgs [][]string
}

func newRun(w workload.Workload, stream *loadgen.Stream) *Run {
	return &Run{Workload: w.Name, Metrics: map[string]float64{}, Samples: map[string]int64{}, StreamHash: stream.Hash, Rate: w.Rate}
}

func (r *Run) set(name string, v float64, samples int64) {
	r.Metrics[name] = v
	if samples > 0 {
		r.Samples[name] = samples
	}
}

func (r *Run) account(res *loadgen.Result) {
	r.Attempted += res.Attempted
	r.Failed += res.Fail.Total()
	if r.FirstErr == "" && res.FirstErr != nil {
		r.FirstErr = res.FirstErr.Error()
	}
}

func (r *Run) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// streamOps is the number of ops one run's stream needs: warm-up, the steady
// schedule, and a saturation slab sized by the workload's SatRate.
func streamOps(w workload.Workload, opt Options) int {
	q := opt.Quarter().Seconds()
	return w.WarmOps + int(w.Rate*q*3) + int(w.SatRate*q)
}

// guard applies the validity guards to a steady phase.
func (r *Run) guard(steady *loadgen.Result) {
	if late := float64(steady.Late.Quantile(0.99)) / 1e3; late > 1000 {
		r.invalid("generator late: p99 %.0f us past intended send time", late)
	}
	if got := float64(steady.Paced) / float64(steady.Scheduled); got < 0.99 {
		r.invalid("offered load not delivered: achieved/offered %.3f", got)
	}
}

func (r *Run) guardDaemons(s *stack) {
	for _, d := range s.daemons {
		if d.Exited() {
			r.invalid("rbacd pid %d exited during the run", d.Pid())
		}
		if msg := d.Stderr(); msg != "" {
			r.invalid("rbacd pid %d wrote to stderr: %s", d.Pid(), msg)
		}
	}
}

// fmtWindows renders per-window values, divided by unit, for the progress log:
// how far a run's windows disagree is how disturbed the run was.
func fmtWindows(vs []float64, unit float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %.0f", v/unit)
	}
	return b.String()
}

// satWindow is the length of one window of the saturation phase, whose
// throughput is the upper quartile over its windows (loadgen.WindowRate).
const satWindow = 500 * time.Millisecond

// RunE2E measures the end-to-end metrics of one workload against real
// daemons, spans off: set-up (three times, median), an open-loop steady phase
// of one-second windows at the frozen rate, a closed-loop saturation phase, and
// the audit of every acknowledged write.
func RunE2E(w workload.Workload, opt Options) (*Run, error) {
	stream, err := loadgen.Generate(w.Spec, opt.Seed, streamOps(w, opt))
	if err != nil {
		return nil, err
	}
	run := newRun(w, stream)
	c := w.Concurrency()

	var s *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close(false)
		}
		var took time.Duration
		var warm *loadgen.Result
		if s, took, warm, err = setUp(w, opt, stream); err != nil {
			return nil, err
		}
		run.account(warm)
		setups = append(setups, took.Seconds())
		opt.logf("%s: set-up %d took %.2fs (%d warm-up requests)", w.Name, i+1, took.Seconds(), warm.Attempted)
	}
	defer func() {
		if s != nil {
			s.close(false)
		}
	}()
	run.DaemonArgs = s.args()
	run.set("setup_s", loadgen.Median(setups), 0)

	q := opt.Quarter()
	steadyOps := stream.Ops[w.WarmOps:]
	windows := opt.SteadyWindows(w)
	// The daemons' CPU time at every window boundary, read beside the load.
	cpu := make([]time.Duration, windows+1)
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		begin := time.Now()
		for i := range cpu {
			time.Sleep(time.Until(begin.Add(time.Duration(i) * w.Window())))
			if cpu[i], cpuErr = s.cpu(); cpuErr != nil {
				return
			}
		}
	}()
	steady := loadgen.RunOpen(steadyConfig(w, opt, windows), steadyOps, s.tokens, s.target)
	<-sampled
	if cpuErr != nil {
		return nil, cpuErr
	}
	run.account(steady)
	run.guard(steady)
	us := func(name string, q float64, kinds ...loadgen.Kind) {
		ns, n := steady.WindowQuantile(q, kinds...)
		run.set(name, ns/1e3, n)
	}
	us("read_p50_us", 0.50, loadgen.Authorize, loadgen.Check)
	us("write_p50_us", 0.50, loadgen.Submit)
	us("ryw_read_p50_us", 0.50, loadgen.RYW)
	// CPU per op, window by window, reported like the latencies: the lower
	// quartile, since a disturbed window's cache misses and stolen time are
	// charged to the daemon.
	var perOp []float64
	for i := range steady.Windows {
		var n int64
		for _, h := range steady.Windows[i] {
			n += h.Count()
		}
		if n > 0 {
			perOp = append(perOp, float64((cpu[i+1]-cpu[i]).Nanoseconds())/1e3/float64(n))
		}
	}
	run.set("server_cpu_us_per_op", loadgen.Quantile(perOp, 0.25), steady.Done)
	opt.logf("%s: windows cpu us/op:%s", w.Name, fmtWindows(perOp, 1))
	for _, d := range []struct {
		name  string
		q     float64
		kinds []loadgen.Kind
	}{
		{"read p50", 0.5, []loadgen.Kind{loadgen.Authorize, loadgen.Check}},
		{"read p90", 0.9, []loadgen.Kind{loadgen.Authorize, loadgen.Check}},
		{"write p50", 0.5, []loadgen.Kind{loadgen.Submit}},
		{"write p90", 0.9, []loadgen.Kind{loadgen.Submit}},
	} {
		per, _ := steady.PerWindow(d.q, d.kinds...)
		opt.logf("%s: windows %s us:%s", w.Name, d.name, fmtWindows(per, 1e3))
	}
	opt.logf("%s: steady %.0f ops/s offered, %d/%d delivered, generator late p50 %.0f us p99 %.0f us",
		w.Name, w.Rate, steady.Paced, steady.Scheduled,
		float64(steady.Late.Quantile(0.5))/1e3, float64(steady.Late.Quantile(0.99))/1e3)

	satOps := steadyOps[steady.Scheduled:]
	sat := loadgen.RunClosedWindows(c.SatWorkers, int(q/satWindow), satWindow, satOps, s.tokens, !w.Follower, s.target)
	run.account(sat)
	rate, _ := sat.WindowRate(satWindow)
	run.set("sat_ops_s", rate, sat.Done)
	if sat.Attempted-sat.Kind(loadgen.RYW).Count() >= int64(len(satOps)) {
		run.invalid("saturation phase ran out of ops after %.2fs: raise the workload's SatRate", sat.Elapsed.Seconds())
	}
	var rss float64
	for _, d := range s.daemons {
		mb, err := d.PeakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = max(rss, mb)
	}
	run.set("peak_rss_mb", rss, 0)

	audit := func() {
		attempted, failed, first := s.audit()
		run.Attempted += attempted
		run.Failed += failed
		if run.FirstErr == "" && first != nil {
			run.FirstErr = first.Error()
		}
	}
	audit()
	run.guardDaemons(s)
	if w.Restart {
		if err := s.restart(stream); err != nil {
			return nil, err
		}
		audit()
		run.guardDaemons(s)
	}
	err = s.close(true)
	s = nil
	if err != nil {
		run.invalid("%v", err)
	}
	return run, nil
}
