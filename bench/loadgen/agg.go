package loadgen

import (
	"sort"
	"time"
)

// Quantile returns the q-quantile of vs, interpolated linearly between the
// two nearest ranks, 0 when empty.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median returns the median of vs (the mean of the middle two for an even
// count), 0 when empty.
func Median(vs []float64) float64 { return Quantile(vs, 0.5) }

// PerWindow is one kind's quantile q in each window, in nanoseconds, with
// the total sample count behind them. Windows without a sample of the kind
// are skipped.
func (r *Result) PerWindow(q float64, kinds ...Kind) (ns []float64, samples int64) {
	for w := range r.Windows {
		h := new(Histogram)
		for _, k := range kinds {
			h.Merge(r.Windows[w][k])
		}
		if h.Count() > 0 {
			ns = append(ns, float64(h.Quantile(q)))
			samples += h.Count()
		}
	}
	return ns, samples
}

// WindowQuantile is the lower quartile over windows of one kind's per-window
// quantile q, in nanoseconds, with the total sample count behind it. What
// disturbs a window on a shared box — a stalled process, a neighbour taking
// a share of the cores — only ever adds latency, so the quiet windows are the
// program's own number: a run with up to three quarters of its windows
// disturbed still reports it, and a run without disturbance reports the same
// number, since its windows agree. A cost of the program that recurs less
// often than every window (a pause every few seconds) is outside this
// number; the merged histograms (Kind) keep it.
func (r *Result) WindowQuantile(q float64, kinds ...Kind) (ns float64, samples int64) {
	per, samples := r.PerWindow(q, kinds...)
	return Quantile(per, 0.25), samples
}

// WindowRate is the upper quartile over windows of the number of ops that
// completed correctly in the window, per second: the throughput of the
// undisturbed windows, by the reasoning of WindowQuantile.
func (r *Result) WindowRate(window time.Duration) (perSec float64, done int64) {
	var per []float64
	for w := range r.Windows {
		var n int64
		for _, h := range r.Windows[w] {
			n += h.Count()
		}
		per = append(per, float64(n)/window.Seconds())
		done += n
	}
	return Quantile(per, 0.75), done
}
