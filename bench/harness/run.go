package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"adminrefine/bench/loadgen"
	"adminrefine/bench/target"
	"adminrefine/bench/workload"
)

// Options locates the program and sizes one run.
type Options struct {
	// Rbacd is the path of the rbacd binary (built beforehand, not timed).
	Rbacd string
	// WorkDir receives the daemons' data directories; each stack makes its
	// own subdirectory and removes it when closed.
	WorkDir string
	Seed    int64
	// Seconds is the measured time of a run: the steady phase takes three
	// quarters of it, the saturation phase one.
	Seconds int
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Quarter is a quarter of the measured time: the length of the saturation
// phase; the steady phase takes three.
func (o Options) Quarter() time.Duration { return time.Duration(o.Seconds) * time.Second / 4 }

// SteadyWindows is the number of windows (of w.Window()) in the steady phase
// of an end-to-end run, three quarters of the measured time. This class of
// box stalls whole processes for tens of milliseconds every few seconds and,
// for minutes at a time, loses a share of every second to a neighbour; all of
// it adds latency and none removes any. A steady-state percentile is
// therefore reported as the lower quartile over the windows of each window's
// percentile (loadgen.Result.WindowQuantile): many short windows leave quiet
// ones to find in a disturbed run, and in a quiet run every window agrees.
func (o Options) SteadyWindows(w workload.Workload) int { return int(3 * o.Quarter() / w.Window()) }

// TraceWindows is the number of steady windows of a traced run's real-daemon
// part — half the measured time; the rest goes to the in-process rungs.
func (o Options) TraceWindows(w workload.Workload) int { return int(2 * o.Quarter() / w.Window()) }

// setupRepeats is how many times a run stands the workload up: set-up time
// is reported as the median, the last stack serves the measured phases.
const setupRepeats = 3

// stack is one stood-up workload: daemons, provisioned tenants, sessions,
// connected clients.
type stack struct {
	w       workload.Workload
	opt     Options
	dir     string
	daemons []*Daemon // primary first, then the follower if any
	target  loadgen.Target
	// tokens holds every tenant's last acknowledged write generation.
	tokens  loadgen.Tokens
	closers []func()
}

func (s *stack) primary() *Daemon { return s.daemons[0] }

// args lists every daemon's command line, for the result file.
func (s *stack) args() [][]string {
	var out [][]string
	for _, d := range s.daemons {
		out = append(out, d.Args)
	}
	return out
}

// steadyConfig is the open-loop configuration of a steady phase of the given
// number of windows: the same frozen rate and in-flight caps in the
// end-to-end and the traced run.
func steadyConfig(w workload.Workload, opt Options, windows int) loadgen.OpenConfig {
	c := w.Concurrency()
	return loadgen.OpenConfig{
		Rate: w.Rate, Windows: windows, Window: w.Window(),
		ReadIssuers: c.ReadIssuers, WriteIssuers: c.WriteIssuers,
		SameNode: !w.Follower, Drain: 5 * time.Second,
	}
}

// readNode is the daemon that serves reads.
func (s *stack) readNode() *Daemon { return s.daemons[len(s.daemons)-1] }

// close disconnects the clients, stops the daemons and removes their data.
// A graceful stop reports a daemon that exits non-zero.
func (s *stack) close(graceful bool) error {
	for _, c := range s.closers {
		c()
	}
	var first error
	// Followers stop first so their pull loops do not log a dead upstream.
	for i := len(s.daemons) - 1; i >= 0; i-- {
		d := s.daemons[i]
		if !graceful {
			d.Kill()
		} else if err := d.Stop(); err != nil && first == nil {
			first = fmt.Errorf("rbacd pid %d: %w: %s", d.Pid(), err, d.Stderr())
		}
	}
	os.RemoveAll(s.dir)
	track(nil, s.dir, false)
	return first
}

func (s *stack) startDaemons() error {
	prim, err := StartDaemon(s.opt.Rbacd, !s.w.HTTP, append([]string{"-data", filepath.Join(s.dir, "primary")}, s.w.Flags()...)...)
	if err != nil {
		return err
	}
	s.daemons = append(s.daemons, prim)
	if s.w.Follower {
		fol, err := StartDaemon(s.opt.Rbacd, !s.w.HTTP, append([]string{
			"-data", filepath.Join(s.dir, "follower"), "-role", "follower", "-upstream", prim.HTTP}, s.w.Flags()...)...)
		if err != nil {
			return err
		}
		s.daemons = append(s.daemons, fol)
	}
	return nil
}

// connect dials the loader's clients and, when sessions is set, opens the
// per-tenant check sessions.
func (s *stack) connect(stream *loadgen.Stream, sessions bool) error {
	c := s.w.Concurrency()
	tenants := s.w.Spec.Tenants
	var create func(int) (uint64, error)
	var ids []uint64
	if s.w.HTTP {
		client := target.NewHTTPClient(c.ReadConns + c.WriteConns)
		s.closers = append(s.closers, client.CloseIdleConnections)
		t := &target.HTTP{Stream: stream, ReadBase: s.readNode().HTTP, WriteBase: s.primary().HTTP, Client: client}
		t.Sessions = make([]uint64, tenants)
		s.target, create, ids = t, t.CreateSession, t.Sessions
	} else {
		read, write, err := target.DialWire(s.readNode().Wire, s.primary().Wire, c.ReadConns, c.WriteConns)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() { read.Close(); write.Close() })
		t := &target.Wire{Stream: stream, Read: read, Write: write}
		t.Sessions = make([]uint64, tenants)
		s.target, create, ids = t, t.CreateSession, t.Sessions
	}
	if !sessions {
		return nil
	}
	for i := range ids {
		id, err := create(i)
		if err != nil {
			return fmt.Errorf("create session for %s: %w", loadgen.TenantName(i), err)
		}
		ids[i] = id
	}
	return nil
}

var stackSeq int

// setUp stands the workload up — exec the daemons, provision every tenant by
// PUT policy, open sessions, replay the warm-up ops — and reports how long
// that took from the exec of the first daemon.
func setUp(w workload.Workload, opt Options, stream *loadgen.Stream) (*stack, time.Duration, *loadgen.Result, error) {
	stackSeq++
	s := &stack{w: w, opt: opt, dir: filepath.Join(opt.WorkDir, fmt.Sprintf("run-%d-%d", os.Getpid(), stackSeq))}
	s.tokens = make(loadgen.Tokens, w.Spec.Tenants)
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	track(nil, s.dir, true)
	fail := func(err error) (*stack, time.Duration, *loadgen.Result, error) {
		s.close(false)
		return nil, 0, nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	start := time.Now()
	if err := s.startDaemons(); err != nil {
		return fail(err)
	}
	rpl := loadgen.PolicyRPL(w.Spec.Roles, w.Spec.Users)
	client := target.NewHTTPClient(1)
	defer client.CloseIdleConnections()
	for i := 0; i < w.Spec.Tenants; i++ {
		if err := target.Post(client, http.MethodPut, target.TenantURL(s.primary().HTTP, i, "policy"), rpl, nil); err != nil {
			return fail(fmt.Errorf("provision %s: %w", loadgen.TenantName(i), err))
		}
	}
	if err := s.connect(stream, w.Spec.CheckFrac > 0); err != nil {
		return fail(err)
	}
	warm := loadgen.RunClosed(w.Concurrency().SatWorkers, time.Minute, stream.Ops[:w.WarmOps], s.tokens, !w.Follower, s.target)
	return s, time.Since(start), warm, nil
}

// getJSON decodes a control-plane GET (stats, healthz, audit) into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// cpu sums the CPU time of every daemon of the stack.
func (s *stack) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range s.daemons {
		c, err := d.CPU()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// audit re-reads every tenant's last acknowledged generation with
// min_generation through the read node, and checks that the hottest tenants'
// audit trails hold their last acknowledged write. It returns the number of
// requests made and how many failed.
func (s *stack) audit() (attempted, failed int64, first error) {
	tokens := s.tokens
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for i := range tokens {
		gen := tokens[i].Load()
		if gen == 0 {
			continue
		}
		attempted++
		op := loadgen.Op{Kind: loadgen.Submit, Tenant: int32(i), N: 1}
		if got, err := s.target.Do(&op, true, gen); err != nil {
			note(fmt.Errorf("re-read %s at generation %d: %w", loadgen.TenantName(i), gen, err))
		} else if got < gen {
			note(fmt.Errorf("re-read %s: generation %d below acknowledged %d", loadgen.TenantName(i), got, gen))
		}
	}
	client := target.NewHTTPClient(1)
	defer client.CloseIdleConnections()
	for i := 0; i < min(auditTenants, len(tokens)); i++ {
		gen := tokens[i].Load()
		if gen == 0 {
			continue
		}
		attempted++
		var trail struct {
			Records []struct {
				Seq     uint64 `json:"seq"`
				Outcome string `json:"outcome"`
			} `json:"records"`
		}
		// The retained window is at most 1024 records, so one page holds it.
		if err := getJSON(client, target.TenantURL(s.primary().HTTP, i, "audit?limit=4096"), &trail); err != nil {
			note(err)
			continue
		}
		found := false
		for _, r := range trail.Records {
			found = found || (r.Seq == gen && r.Outcome == "applied")
		}
		if !found {
			note(fmt.Errorf("audit trail of %s misses acknowledged generation %d", loadgen.TenantName(i), gen))
		}
	}
	return attempted, failed, first
}

// auditTenants is how many of the hottest tenants have their audit trail
// checked after a run.
const auditTenants = 4

// restart stops the primary with SIGTERM, starts it again on the same data
// directory and reconnects the loader, so the audit that follows proves
// recovery of every acknowledged write. It proves recovery, not device
// durability: the page cache survives a process restart.
func (s *stack) restart(stream *loadgen.Stream) error {
	for _, c := range s.closers {
		c()
	}
	s.closers = nil
	old := s.primary()
	if err := old.Stop(); err != nil {
		return fmt.Errorf("stop for restart: %w: %s", err, old.Stderr())
	}
	if msg := old.Stderr(); msg != "" {
		return fmt.Errorf("rbacd wrote to stderr: %s", msg)
	}
	s.daemons = nil
	if err := s.startDaemons(); err != nil {
		return err
	}
	return s.connect(stream, false) // the audit issues no checks
}
