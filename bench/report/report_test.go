package report

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"adminrefine/bench/workload"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workload.All) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in package workload", len(b.Workloads), len(workload.All))
	}
	for i, w := range workload.All {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, package workload %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		check(w.Name, "x")
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog", len(b.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, m := range EndToEnd {
		e := b.EndToEnd[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, e, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check(m.Name, m.Unit)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog (at most 128)", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range PerLayer {
		e := b.PerLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, e, m)
		}
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("%s: a layer metric names its layer and the end-to-end metric it should move", m.Name)
		}
		check(m.Name, m.Unit)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", b.RunSeconds, b.Paths)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same inputs.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{181, 160, 157, 173, 166, 159, 190, 165, 161, 167}, 159.75, 165.5, 175},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v %v %v, Python gives %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := Spread([]float64{100, 100, 100, 100}); s != 0 {
		t.Errorf("spread of a constant %v", s)
	}
}

func TestJudge(t *testing.T) {
	lower := Metric{Name: "read_p50_us", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "sat_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m    Metric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, WithinBound},
		{lower, steady, []float64{120, 121, 119, 120, 120}, Worse},
		{lower, steady, []float64{80, 81, 79, 80, 80}, Better},
		{higher, steady, []float64{80, 81, 79, 80, 80}, Worse},
		{higher, steady, []float64{120, 121, 119, 120, 120}, Better},
		// A side whose own runs disagree by more than the bound resolves
		// nothing, whatever the medians say.
		{lower, []float64{100, 140, 70, 100, 120}, []float64{150, 151, 149, 150, 150}, Unresolved},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFailsOnWorseAndOnFailures(t *testing.T) {
	mk := func(read float64, failed int64, valid bool) []*Result {
		var out []*Result
		for i := 0; i < 3; i++ {
			out = append(out, &Result{Workload: "w", Valid: valid, Failed: failed,
				EndToEnd: map[string]Value{"read_p50_us": {Value: read + float64(i)}}})
		}
		return out
	}
	var sink strings.Builder
	if !Compare(&sink, mk(100, 0, true), mk(103, 0, true)) {
		t.Errorf("3%% worse is within the 10%% bound:\n%s", sink.String())
	}
	if Compare(&sink, mk(100, 0, true), mk(130, 0, true)) {
		t.Error("30% worse must fail the comparison")
	}
	if Compare(&sink, mk(100, 0, true), mk(100, 1, true)) {
		t.Error("a rise in failed requests must fail the comparison")
	}
	sink.Reset()
	if !Compare(&sink, mk(100, 0, true), mk(100, 0, false)) || !strings.Contains(sink.String(), "invalid runs") {
		t.Errorf("invalid runs are listed, not failed:\n%s", sink.String())
	}
}
