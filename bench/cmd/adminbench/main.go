// Command adminbench is the repo's reference benchmark: four daemon-level
// workloads against real rbacd child processes, nine end-to-end metrics with
// fixed bounds, and a traced ladder run that accounts for each median layer
// by layer. bench/README.md is the glossary; bench/run.sh builds and runs it.
//
//	adminbench -workload all -seed 1 -out DIR        one full set: every workload, both runs
//	adminbench -repeat N -out DIR                    N full sets, then median and quartiles
//	adminbench -compare A B                          apply the bounds to two result directories
//	adminbench -workload W -seed S -seconds T -trace 0|1
//	                                                 one run, one JSON object on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adminrefine/bench/harness"
	"adminrefine/bench/report"
	"adminrefine/bench/workload"
)

func main() {
	var (
		rbacd   = flag.String("rbacd", ".bench_build/bin/rbacd", "path of the rbacd binary under test")
		work    = flag.String("work", ".bench_build/work", "directory for the daemons' data (removed afterwards)")
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the op stream")
		seconds = flag.Int("seconds", 28, "measured seconds per run: the steady phase takes three quarters, the saturation phase one")
		trace   = flag.Int("trace", -1, "one run of one workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON object on the last line")
		out     = flag.String("out", ".bench_build/out", "directory for result files and traces")
		repeat  = flag.Int("repeat", 1, "number of full sets to run")
		compare = flag.Bool("compare", false, "compare two result directories (arguments A B) against the bounds")
	)
	flag.Parse()
	if *seconds < 4 {
		fatal(2, "-seconds must be at least 4")
	}

	// Children and data directories must not outlive an interrupted run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		harness.Abort()
		os.Exit(130)
	}()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two result directories")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	// GOMAXPROCS at most nproc: the loader shares the box with the daemons.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	opt := harness.Options{Rbacd: *rbacd, WorkDir: *work, Seed: *seed, Seconds: *seconds, Log: os.Stderr}
	var selected []workload.Workload
	if *name == "all" {
		selected = workload.All
	} else if w, ok := workload.Lookup(*name); ok {
		selected = []workload.Workload{w}
	} else {
		fatal(2, "unknown workload %q", *name)
	}

	if *trace >= 0 {
		if len(selected) != 1 || *trace > 1 {
			fatal(2, "-trace takes 0 or 1 and one -workload")
		}
		os.Exit(contractRun(selected[0], opt, *trace == 1))
	}

	code := 0
	for set := 1; set <= *repeat; set++ {
		dir := *out
		if *repeat > 1 {
			dir = filepath.Join(*out, fmt.Sprintf("set%d", set))
		}
		for _, w := range selected {
			if c := fullRun(w, opt, dir); c != 0 {
				code = c
			}
		}
	}
	if *repeat > 1 {
		results, err := report.Load(*out)
		if err != nil {
			fatal(1, "%v", err)
		}
		report.Summarize(os.Stdout, results)
	}
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adminbench: "+format+"\n", args...)
	harness.Abort() // no daemon outlives the benchmark, whatever the way out
	os.Exit(code)
}

func environment() report.Env {
	daemonProcs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		daemonProcs = v // the daemons inherit the environment
	}
	commit := "unknown"
	if outp, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(outp))
	}
	return report.Env{
		Nproc: runtime.NumCPU(), LoaderGOMAXPROCS: runtime.GOMAXPROCS(0), DaemonGOMAXPROCS: daemonProcs,
		GoVersion: runtime.Version(), Commit: commit,
		Durability: "-sync: a submit is acknowledged after its commit group's fsync; sandbox fsync, not a device number; the restart audit proves recovery, not power-loss durability",
	}
}

func values(names []report.Metric, run *harness.Run) map[string]report.Value {
	out := map[string]report.Value{}
	for _, m := range names {
		out[m.Name] = report.Value{Value: run.Metrics[m.Name], Unit: m.Unit, Samples: run.Samples[m.Name]}
	}
	return out
}

// contractRun is one run of one workload in the shape the benchmark driver
// reads: the last line of standard output is one JSON object.
func contractRun(w workload.Workload, opt harness.Options, traced bool) int {
	var run *harness.Run
	names := report.EndToEnd
	if traced {
		tr, err := harness.RunTrace(w, opt)
		if err != nil {
			fatal(1, "%v", err)
		}
		run, names = tr.Run, report.PerLayer
		printLadders(tr)
	} else {
		var err error
		if run, err = harness.RunE2E(w, opt); err != nil {
			fatal(1, "%v", err)
		}
	}
	for _, why := range run.Invalid {
		fmt.Fprintf(os.Stderr, "adminbench: %s: INVALID RUN: %s\n", w.Name, why)
	}
	if run.Failed > 0 {
		fmt.Fprintf(os.Stderr, "adminbench: %s: %d of %d requests failed; first: %s\n", w.Name, run.Failed, run.Attempted, run.FirstErr)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: run.Failed == 0, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]metric{}}
	for _, m := range names {
		line.Metrics[m.Name] = metric{Value: run.Metrics[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(data))
	if run.Failed > 0 {
		return 1
	}
	return 0
}

// fullRun is one workload of one set: the end-to-end run, then the traced
// run, printed and written to dir as <workload>.json and
// <workload>.trace.json.
func fullRun(w workload.Workload, opt harness.Options, dir string) int {
	started := time.Now()
	e2e, err := harness.RunE2E(w, opt)
	if err != nil {
		fatal(1, "%v", err)
	}
	tr, err := harness.RunTrace(w, opt)
	if err != nil {
		fatal(1, "%v", err)
	}
	res := &report.Result{
		Workload: w.Name, Seed: opt.Seed, Seconds: opt.Seconds, Rate: w.Rate,
		DaemonArgs: e2e.DaemonArgs, StreamHash: fmt.Sprintf("%016x", e2e.StreamHash), Env: environment(),
		Invalid:   append(e2e.Invalid, tr.Invalid...),
		Attempted: e2e.Attempted + tr.Attempted, Failed: e2e.Failed + tr.Failed, FirstError: e2e.FirstErr,
		EndToEnd: values(report.EndToEnd, e2e), PerLayer: values(report.PerLayer, tr.Run),
	}
	if res.FirstError == "" {
		res.FirstError = tr.FirstErr
	}
	res.Valid = len(res.Invalid) == 0
	for _, l := range tr.Ladders {
		rl := report.Ladder{Kind: l.Kind.String()}
		for _, s := range l.Steps {
			rl.Steps = append(rl.Steps, report.LadderStep{Layer: s.Layer, SelfUS: float64(s.Self) / 1e3})
			rl.P50US += float64(s.Self) / 1e3
		}
		rl.Steps = append(rl.Steps, report.LadderStep{Layer: "daemon", SelfUS: float64(l.Daemon) / 1e3})
		rl.P50US += float64(l.Daemon) / 1e3
		res.Ladders = append(res.Ladders, rl)
	}
	if err := res.Write(dir); err != nil {
		fatal(1, "%v", err)
	}
	if err := tr.Spans.Write(filepath.Join(dir, w.Name+".trace.json")); err != nil {
		fatal(1, "%v", err)
	}

	fmt.Printf("\n== %s (seed %d, %d s, %.0f ops/s offered, %.0f s wall) ==\n", w.Name, opt.Seed, opt.Seconds, w.Rate, time.Since(started).Seconds())
	for _, m := range report.EndToEnd {
		v := res.EndToEnd[m.Name]
		fmt.Printf("  %-24s %14.2f %-6s", m.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf(" n=%d", v.Samples)
		}
		fmt.Println()
	}
	fmt.Printf("  %-24s %14d of %d requests\n", "failed", res.Failed, res.Attempted)
	for _, m := range report.PerLayer {
		v := res.PerLayer[m.Name]
		fmt.Printf("  %-34s %14.3f %s\n", m.Name, v.Value, v.Unit)
	}
	printLadders(tr)
	for _, why := range res.Invalid {
		fmt.Printf("  INVALID: %s\n", why)
	}
	if res.Failed > 0 {
		fmt.Printf("  FAILED: %d requests; first: %s\n", res.Failed, res.FirstError)
		return 1
	}
	if !res.Valid {
		return 3
	}
	return 0
}

// printLadders prints each op kind's real-daemon median as a sum of layer
// self times, the daemon's residual closing the ladder.
func printLadders(tr *harness.Traced) {
	for _, l := range tr.Ladders {
		total := l.Daemon
		for _, s := range l.Steps {
			total += s.Self
		}
		fmt.Fprintf(os.Stderr, "  ladder %-9s p50 %9.1f us =", l.Kind, float64(total)/1e3)
		for _, s := range l.Steps {
			fmt.Fprintf(os.Stderr, " %s %.1f (%.0f%%) +", s.Layer, float64(s.Self)/1e3, 100*float64(s.Self)/float64(total))
		}
		fmt.Fprintf(os.Stderr, " daemon %.1f (%.0f%%)\n", float64(l.Daemon)/1e3, 100*float64(l.Daemon)/float64(total))
	}
}

func runCompare(a, b string) int {
	ra, err := report.Load(a)
	if err != nil {
		fatal(1, "%v", err)
	}
	rb, err := report.Load(b)
	if err != nil {
		fatal(1, "%v", err)
	}
	if !report.Compare(os.Stdout, ra, rb) {
		return 1
	}
	return 0
}
