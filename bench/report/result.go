package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Value is one measured metric in a result file.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

// Env records the machine and build a result was measured on, so results
// from different boxes are not compared by accident.
type Env struct {
	Nproc            int    `json:"nproc"`
	LoaderGOMAXPROCS int    `json:"loader_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	// Durability states what an acknowledged submit means in these numbers.
	Durability string `json:"durability"`
}

// LadderStep is one layer's share of an op kind's median.
type LadderStep struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
}

// Ladder is one op kind's real-daemon median as a sum of self times.
type Ladder struct {
	Kind  string       `json:"kind"`
	P50US float64      `json:"p50_us"`
	Steps []LadderStep `json:"steps"`
}

// Result is one workload's result file: one set's end-to-end run and traced
// run, with everything needed to reproduce and to judge them.
type Result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Rate       float64          `json:"frozen_rate_ops_s"`
	DaemonArgs [][]string       `json:"daemon_args"`
	StreamHash string           `json:"stream_hash"`
	Env        Env              `json:"env"`
	Valid      bool             `json:"valid"`
	Invalid    []string         `json:"invalid,omitempty"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	FirstError string           `json:"first_error,omitempty"`
	EndToEnd   map[string]Value `json:"end_to_end,omitempty"`
	PerLayer   map[string]Value `json:"per_layer,omitempty"`
	Ladders    []Ladder         `json:"ladders,omitempty"`
}

// Write stores the result as <dir>/<workload>.json.
func (r *Result) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(data, '\n'), 0o644)
}

// Load reads every result file under dir: a set directory holds one file per
// workload, a -repeat directory one set directory per repetition.
func Load(dir string) ([]*Result, error) {
	var out []*Result
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != "" {
			out = append(out, &r)
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s holds no result files", dir)
	}
	return out, err
}

// Quartiles returns the first, second and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), which
// is how the benchmark's acceptance spread is defined. One value is its own
// quartiles.
func Quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// Spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a difference must exceed to be resolved.
func Spread(vs []float64) float64 {
	q1, q2, q3 := Quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// series groups end-to-end values by workload and metric.
func series(results []*Result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range results {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

func workloads(results []*Result) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range results {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// Summarize prints median and quartiles per workload and end-to-end metric
// over a set of results: the -repeat report.
func Summarize(w io.Writer, results []*Result) {
	byWorkload := series(results)
	fmt.Fprintf(w, "%-22s %-22s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads(results) {
		for _, m := range EndToEnd {
			vs := byWorkload[wl][m.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := Quartiles(vs)
			fmt.Fprintf(w, "%-22s %-22s %4d %12.2f %12.2f %12.2f %7.1f%% %6.0f%%\n", wl, m.Name, len(vs), q1, q2, q3, 100*Spread(vs), 100*m.Bound)
		}
	}
}

// Verdicts of a comparison row.
const (
	Better      = "better"
	WithinBound = "within-bound"
	Worse       = "worse"
	Unresolved  = "unresolved"
)

// judge compares one metric's values on two sides. A difference beyond the
// bound is worse or better; where either side's own spread is wider than
// the bound the row is unresolved, not unchanged.
func judge(m Metric, a, b []float64) (verdict string, change, spread float64) {
	_, ma, _ := Quartiles(a)
	_, mb, _ := Quartiles(b)
	spread = max(Spread(a), Spread(b))
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread > m.Bound:
		return Unresolved, change, spread
	case worse > m.Bound:
		return Worse, change, spread
	case -worse > m.Bound:
		return Better, change, spread
	}
	return WithinBound, change, spread
}

// Compare applies the catalog's bounds to two sets of results (a the
// parent's, b the change's) and prints one row per workload and end-to-end
// metric. It reports whether the comparison passes: no row is worse and no
// workload has more failed requests on side b. Invalid runs are listed, not
// failed: on a noisy box the guards fire on runs whose medians still agree.
func Compare(w io.Writer, a, b []*Result) bool {
	sa, sb := series(a), series(b)
	pass := true
	fmt.Fprintf(w, "%-22s %-22s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	for _, wl := range workloads(a) {
		for _, m := range EndToEnd {
			va, vb := sa[wl][m.Name], sb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, change, spread := judge(m, va, vb)
			if verdict == Worse {
				pass = false
			}
			_, ma, _ := Quartiles(va)
			_, mb, _ := Quartiles(vb)
			fmt.Fprintf(w, "%-22s %-22s %12.2f %12.2f %+7.1f%% %7.1f%% %6.0f%%  %s\n", wl, m.Name, ma, mb, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	failed := func(rs []*Result, wl string) (n int64, invalid int) {
		for _, r := range rs {
			if r.Workload == wl {
				n += r.Failed
				if !r.Valid {
					invalid++
				}
			}
		}
		return n, invalid
	}
	for _, wl := range workloads(b) {
		fa, ia := failed(a, wl)
		fb, ib := failed(b, wl)
		if fb > fa {
			fmt.Fprintf(w, "%-22s failed requests rose from %d to %d\n", wl, fa, fb)
			pass = false
		}
		if ia+ib > 0 {
			fmt.Fprintf(w, "%-22s invalid runs (generator late, load not delivered, daemon stderr): %d on side A, %d on side B — their rows deserve no trust\n", wl, ia, ib)
		}
	}
	return pass
}
