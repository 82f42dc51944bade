package harness

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adminrefine/bench/ladder"
	"adminrefine/bench/loadgen"
	"adminrefine/bench/target"
	"adminrefine/bench/workload"
)

// scrapeTenants is how many of the hottest tenants have their /stats read
// before and after the steady phase. Reading a tenant's stats opens it, so
// on a workload with a residency budget the scrape stays well inside it.
const scrapeTenants = 16

// tenantStats is the part of GET /v1/tenants/{t}/stats the benchmark reads.
type tenantStats struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Stores    uint64 `json:"stores"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Authorizes uint64 `json:"authorizes"`
	Sessions   *struct {
		Checks   uint64 `json:"checks"`
		Compiles uint64 `json:"compiles"`
		Cache    struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	} `json:"sessions"`
	Replication *struct {
		Lag            uint64 `json:"lag"`
		Pulls          uint64 `json:"pulls"`
		RecordsApplied uint64 `json:"records_applied"`
	} `json:"replication"`
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Overload struct {
		Admission *struct {
			Read  classStats `json:"read"`
			Write classStats `json:"write"`
		} `json:"admission"`
	} `json:"overload"`
}

type classStats struct {
	Admitted     uint64 `json:"admitted"`
	ShedOverload uint64 `json:"shed_overload"`
	ShedDeadline uint64 `json:"shed_deadline"`
}

// counters is the sum, over the scraped tenants, of the daemon's exported
// per-tenant counters.
type counters struct {
	hits, misses, stores, evictions, authorizes uint64
	checks, compiles, sessHits, sessMisses      uint64
	pulls, applied                              uint64
}

// delta is after - before for a monotone counter; a tenant reopened in
// between restarts its counters, and then the later value is all there is.
func delta(after, before uint64) uint64 {
	if after < before {
		return after
	}
	return after - before
}

func (s *stack) scrape(client *http.Client) ([]tenantStats, error) {
	out := make([]tenantStats, min(scrapeTenants, s.w.Spec.Tenants))
	for i := range out {
		if err := getJSON(client, target.TenantURL(s.readNode().HTTP, i, "stats"), &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sumDeltas(before, after []tenantStats) counters {
	var c counters
	for i := range after {
		a, b := after[i], before[i]
		c.hits += delta(a.Cache.Hits, b.Cache.Hits)
		c.misses += delta(a.Cache.Misses, b.Cache.Misses)
		c.stores += delta(a.Cache.Stores, b.Cache.Stores)
		c.evictions += delta(a.Cache.Evictions, b.Cache.Evictions)
		c.authorizes += delta(a.Authorizes, b.Authorizes)
		if a.Sessions != nil && b.Sessions != nil {
			c.checks += delta(a.Sessions.Checks, b.Sessions.Checks)
			c.compiles += delta(a.Sessions.Compiles, b.Sessions.Compiles)
			c.sessHits += delta(a.Sessions.Cache.Hits, b.Sessions.Cache.Hits)
			c.sessMisses += delta(a.Sessions.Cache.Misses, b.Sessions.Cache.Misses)
		}
		if a.Replication != nil && b.Replication != nil {
			c.pulls += delta(a.Replication.Pulls, b.Replication.Pulls)
			c.applied += delta(a.Replication.RecordsApplied, b.Replication.RecordsApplied)
		}
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (h health) admitted() uint64 {
	if h.Overload.Admission == nil {
		return 0
	}
	return h.Overload.Admission.Read.Admitted + h.Overload.Admission.Write.Admitted
}

func (h health) shed() uint64 {
	if h.Overload.Admission == nil {
		return 0
	}
	a := h.Overload.Admission
	return a.Read.ShedOverload + a.Read.ShedDeadline + a.Write.ShedOverload + a.Write.ShedDeadline
}

// watchLag polls the hottest tenant's replication lag on the follower until
// stop is closed and returns the largest value seen.
func (s *stack) watchLag(client *http.Client, stop <-chan struct{}) uint64 {
	var worst uint64
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return worst
		case <-tick.C:
			var st tenantStats
			if getJSON(client, target.TenantURL(s.readNode().HTTP, 0, "stats"), &st) == nil && st.Replication != nil {
				worst = max(worst, st.Replication.Lag)
			}
		}
	}
}

// ladderOps sizes a serial rung: enough ops for stable medians of every
// kind, few enough that the serial rungs fit the traced run's time.
func ladderOps(w workload.Workload) int {
	return min(4000, max(300, int(w.Rate/2)))
}

// Traced is a traced run's outcome: the per-layer metrics and the ladders
// that account for each kind's real-daemon median.
type Traced struct {
	*Run
	Ladders []Ladder
	Spans   *ladder.Tracer
}

// Ladder is one op kind's real-daemon median as a sum of layer self times;
// the last step, daemon, is the residual that closes it.
type Ladder struct {
	Kind   loadgen.Kind
	Steps  []ladder.Step
	Daemon time.Duration
}

// RunTrace is the traced run of one workload: a shorter steady phase against
// the real daemons, bracketed by /stats scrapes, for the layers' exported
// counters and the daemon's own medians; a short saturation phase for
// admission's shed share; then the in-process ladder of package ladder.
func RunTrace(w workload.Workload, opt Options) (*Traced, error) {
	q := opt.Quarter()
	n := ladderOps(w)
	paced := q
	need := max(int(w.Rate*w.Window().Seconds())*opt.TraceWindows(w)+int(w.SatRate*q.Seconds()/2), ladder.OpsNeeded(w, n, paced))
	stream, err := loadgen.Generate(w.Spec, opt.Seed, w.WarmOps+need)
	if err != nil {
		return nil, err
	}
	run := newRun(w, stream)
	c := w.Concurrency()
	s, took, warm, err := setUp(w, opt, stream)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.close(false)
		}
	}()
	run.account(warm)
	opt.logf("%s: set-up took %.2fs", w.Name, took.Seconds())
	run.DaemonArgs = s.args()
	client := target.NewHTTPClient(2)
	defer client.CloseIdleConnections()

	before, err := s.scrape(client)
	if err != nil {
		return nil, err
	}
	ops := stream.Ops[w.WarmOps:]
	stop := make(chan struct{})
	var lag uint64
	var wg sync.WaitGroup
	if w.Follower {
		wg.Add(1)
		go func() { defer wg.Done(); lag = s.watchLag(client, stop) }()
	}
	steady := loadgen.RunOpen(steadyConfig(w, opt, opt.TraceWindows(w)), ops, s.tokens, s.target)
	close(stop)
	wg.Wait()
	run.account(steady)
	run.guard(steady)
	after, err := s.scrape(client)
	if err != nil {
		return nil, err
	}
	cnt := sumDeltas(before, after)
	run.set("decision.hit_ratio", ratio(cnt.hits, cnt.hits+cnt.misses), int64(cnt.hits+cnt.misses))
	run.set("decision.evictions_per_kop", 1000*ratio(cnt.evictions, cnt.authorizes), 0)
	run.set("decision.stores_per_kop", 1000*ratio(cnt.stores, cnt.authorizes), 0)
	run.set("session.cache_hit_ratio", ratio(cnt.sessHits, cnt.sessHits+cnt.sessMisses), int64(cnt.checks))
	run.set("session.compiles_per_kop", 1000*ratio(cnt.compiles, cnt.checks), 0)
	run.set("replication.records_per_pull", ratio(cnt.applied, cnt.pulls), int64(cnt.pulls))
	run.set("replication.lag_records_max", float64(lag), 0)
	run.set("loadgen.late_p99_us", float64(steady.Late.Quantile(0.99))/1e3, steady.Late.Count())
	run.set("loadgen.achieved_over_offered", float64(steady.Paced)/float64(steady.Scheduled), steady.Scheduled)

	// How long a write takes to become readable on the follower: the RYW
	// read waits for exactly that, on top of what a plain read costs.
	readP50, _ := steady.WindowQuantile(0.5, loadgen.Authorize, loadgen.Check)
	readP99, nr := steady.WindowQuantile(0.99, loadgen.Authorize, loadgen.Check)
	writeP99, nw := steady.WindowQuantile(0.99, loadgen.Submit)
	readP90, _ := steady.WindowQuantile(0.9, loadgen.Authorize, loadgen.Check)
	writeP90, _ := steady.WindowQuantile(0.9, loadgen.Submit)
	run.set("daemon.read_p90_us", readP90/1e3, nr)
	run.set("daemon.write_p90_us", writeP90/1e3, nw)
	run.set("daemon.read_p99_us", readP99/1e3, nr)
	run.set("daemon.write_p99_us", writeP99/1e3, nw)
	if w.Follower {
		ryw50, nr := steady.WindowQuantile(0.5, loadgen.RYW)
		ryw99, _ := steady.WindowQuantile(0.99, loadgen.RYW)
		run.set("replication.visible_p50_us", max(0, ryw50-readP50)/1e3, nr)
		run.set("replication.visible_p99_us", max(0, ryw99-readP50)/1e3, nr)
	} else {
		run.set("replication.visible_p50_us", 0, 0)
		run.set("replication.visible_p99_us", 0, 0)
	}

	var h0, h1 health
	if err := getJSON(client, s.readNode().HTTP+"/healthz", &h0); err != nil {
		return nil, err
	}
	sat := loadgen.RunClosed(c.SatWorkers, q/2, ops[steady.Scheduled:], s.tokens, !w.Follower, s.target)
	run.account(sat)
	if err := getJSON(client, s.readNode().HTTP+"/healthz", &h1); err != nil {
		return nil, err
	}
	shed := h1.shed() - h0.shed()
	run.set("admission.shed_frac", ratio(shed, shed+h1.admitted()-h0.admitted()), int64(sat.Attempted))
	run.guardDaemons(s)
	err = s.close(true)
	s = nil
	if err != nil {
		run.invalid("%v", err)
	}

	dir := filepath.Join(opt.WorkDir, fmt.Sprintf("run-%d-ladder", os.Getpid()))
	track(nil, dir, true)
	defer func() {
		os.RemoveAll(dir)
		track(nil, dir, false)
	}()
	out, err := ladder.Run(ladder.Config{Workload: w, Stream: stream, Warm: stream.Ops[:w.WarmOps], Ops: ops, Dir: dir, N: n, Paced: paced})
	if err != nil {
		return nil, fmt.Errorf("%s ladder: %w", w.Name, err)
	}
	for name, v := range out.Metrics {
		run.set(name, v, 0)
	}
	tr := &Traced{Run: run, Spans: out.Tracer}
	for _, l := range out.Ladders {
		p50, _ := steady.WindowQuantile(0.5, l.Kind)
		tr.Ladders = append(tr.Ladders, Ladder{Kind: l.Kind, Steps: l.Steps, Daemon: time.Duration(p50) - l.Top})
		if l.Kind == loadgen.Authorize {
			run.set("daemon.residual_us", (p50-float64(l.Top))/1e3, 0)
		}
	}
	return tr, nil
}
