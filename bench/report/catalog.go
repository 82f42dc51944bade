// Package report holds the benchmark's metric catalog — every metric's unit,
// direction, bound, and which end-to-end metric a layer metric is expected
// to move on which workload — plus the result-file format and the
// comparator that applies the bounds.
package report

// Metric describes one catalog entry. BENCHMARK.json lists the same names,
// units, directions and bounds; TestCatalogMatchesBenchmarkJSON keeps the
// two in step.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (0 for layer metrics).
	Bound float64
	// Layer is the package a per-layer metric belongs to.
	Layer string
	// Moves says which end-to-end metric the layer metric should move, on
	// which workload (per-layer metrics), or what the metric means
	// (end-to-end metrics).
	Moves string
}

// EndToEnd are the metrics a user of the system would see, measured against
// real daemons with spans off. Failures are not a metric: a run reports
// attempted and failed requests, and any failure makes it incorrect.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Moves: "exec of the first daemon to the end of warm-up (median of 3 set-ups)"},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "authorize + check latency from intended send time, steady phase (lower quartile over the windows of the per-window median)"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "durable submit acknowledgement, steady phase, likewise"},
	{Name: "ryw_read_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Moves: "read issued at the instant its write is acknowledged, carrying that generation as min_generation, served by the read node"},
	{Name: "sat_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Moves: "correct completions per second, closed loop (upper quartile over half-second windows)"},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, Moves: "CPU time of all daemons per completed request, steady phase (lower quartile over the windows)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Moves: "largest VmHWM among the daemons after the saturation phase"},
}

// PerLayer are the single-layer metrics of the traced run. Timings come from
// the in-process ladder, counters from the daemons' /stats and /healthz
// scraped around the steady phase, storage counts from a wrapped WAL file.
var PerLayer = []Metric{
	{Name: "wire.encode_req_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "read_p50_us, server_cpu_us_per_op on wire_point_reads; read_p50_us on wire_bulk_cold; none on http_follower_mixed"},
	{Name: "wire.parse_req_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "as wire.encode_req_ns"},
	{Name: "wire.encode_resp_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "as wire.encode_req_ns"},
	{Name: "wire.parse_resp_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "as wire.encode_req_ns"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower", Layer: "wire", Moves: "read_p50_us, sat_ops_s on wire_point_reads and wire_bulk_cold"},
	{Name: "wire.parse_allocs_per_op", Unit: "count", Better: "lower", Layer: "wire", Moves: "server_cpu_us_per_op, daemon.read_p90_us on wire_point_reads"},
	{Name: "wire.loopback_rtt_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "read_p50_us, sat_ops_s on wire_* (serial round trip to an in-process wire.Server)"},
	{Name: "wire.transport_self_us", Unit: "us", Better: "lower", Layer: "wire", Moves: "read_p50_us, server_cpu_us_per_op, sat_ops_s on wire_point_reads; none on http_follower_mixed"},

	{Name: "server.handler_us", Unit: "us", Better: "lower", Layer: "server", Moves: "read_p50_us, server_cpu_us_per_op on http_follower_mixed; none on wire_*"},
	{Name: "server.handler_self_us", Unit: "us", Better: "lower", Layer: "server", Moves: "as server.handler_us"},
	{Name: "server.handler_allocs_per_op", Unit: "count", Better: "lower", Layer: "server", Moves: "server_cpu_us_per_op, daemon.read_p90_us on http_follower_mixed"},
	{Name: "server.loopback_rtt_us", Unit: "us", Better: "lower", Layer: "server", Moves: "read_p50_us, sat_ops_s on http_follower_mixed"},
	{Name: "server.transport_self_us", Unit: "us", Better: "lower", Layer: "server", Moves: "read_p50_us on http_follower_mixed (net/http, loopback, scheduling)"},
	{Name: "server.bytes_per_op", Unit: "B", Better: "lower", Layer: "server", Moves: "read_p50_us, sat_ops_s on http_follower_mixed"},

	{Name: "admission.acquire_ns", Unit: "ns", Better: "lower", Layer: "admission", Moves: "read_p50_us on wire_point_reads (every request crosses it)"},
	{Name: "admission.shed_frac", Unit: "ratio", Better: "lower", Layer: "admission", Moves: "sat_ops_s and the failed count on every workload's saturation phase"},

	{Name: "placement.owner_ns", Unit: "ns", Better: "lower", Layer: "placement", Moves: "nothing today: the wire plane never consults it; priced so the fix (ROADMAP 1) is"},

	{Name: "session.check_ns", Unit: "ns", Better: "lower", Layer: "session", Moves: "read_p50_us on wire_point_reads, http_follower_mixed (30 % of reads are checks)"},
	{Name: "session.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "session", Moves: "as session.check_ns"},
	{Name: "session.compiles_per_kop", Unit: "count", Better: "lower", Layer: "session", Moves: "daemon.read_p90_us on wire_write_heavy (every write invalidates compiled views)"},

	{Name: "tenant.authorize_self_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "tenant", Moves: "read_p50_us on wire_point_reads"},
	{Name: "tenant.submit_us", Unit: "us", Better: "lower", Layer: "tenant", Moves: "write_p50_us on wire_write_heavy, http_follower_mixed"},
	{Name: "tenant.submit_self_us", Unit: "us", Better: "lower", Layer: "tenant", Moves: "write_p50_us on wire_write_heavy"},
	{Name: "tenant.group_size", Unit: "count", Better: "higher", Layer: "tenant", Moves: "write_p50_us, daemon.write_p90_us, sat_ops_s on wire_write_heavy (submits per commit group)"},
	{Name: "tenant.waitgen_us", Unit: "us", Better: "lower", Layer: "tenant", Moves: "ryw_read_p50_us on every workload"},
	{Name: "tenant.cold_open_ms", Unit: "ms", Better: "lower", Layer: "tenant", Moves: "daemon.read_p90_us on wire_bulk_cold; setup_s everywhere"},
	{Name: "tenant.resident_hit_ratio", Unit: "ratio", Better: "higher", Layer: "tenant", Moves: "daemon.read_p90_us, peak_rss_mb on wire_bulk_cold"},
	{Name: "tenant.evictions_per_kop", Unit: "count", Better: "lower", Layer: "tenant", Moves: "daemon.read_p90_us on wire_bulk_cold"},

	{Name: "engine.authorize_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "engine", Moves: "read_p50_us, server_cpu_us_per_op on wire_bulk_cold; predicted none on wire_point_reads"},
	{Name: "engine.deny_ns_per_cmd", Unit: "ns", Better: "lower", Layer: "engine", Moves: "as engine.authorize_ns_per_cmd (40 % of bulk commands are denied)"},
	{Name: "engine.submit_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "write_p50_us on wire_write_heavy"},
	{Name: "engine.snapshot_ns", Unit: "ns", Better: "lower", Layer: "engine", Moves: "read_p50_us on wire_point_reads (once per request)"},
	{Name: "engine.build_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "daemon.read_p90_us on wire_bulk_cold (every cold open builds an engine); setup_s"},

	{Name: "decision.hit_ratio", Unit: "ratio", Better: "higher", Layer: "decision", Moves: "read_p50_us on wire_bulk_cold; about 1 and flat on wire_point_reads"},
	{Name: "decision.evictions_per_kop", Unit: "count", Better: "lower", Layer: "decision", Moves: "read_p50_us on wire_bulk_cold"},
	{Name: "decision.stores_per_kop", Unit: "count", Better: "lower", Layer: "decision", Moves: "read_p50_us on wire_bulk_cold"},

	{Name: "command.fingerprint_ns", Unit: "ns", Better: "lower", Layer: "command", Moves: "read_p50_us on wire_bulk_cold"},
	{Name: "command.interned_per_kop", Unit: "count", Better: "lower", Layer: "command", Moves: "peak_rss_mb on wire_bulk_cold"},

	{Name: "storage.write_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "write_p50_us on wire_write_heavy, http_follower_mixed"},
	{Name: "storage.fsync_p50_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "write_p50_us on wire_write_heavy, http_follower_mixed (sandbox fsync, not a device)"},
	{Name: "storage.fsync_p99_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "daemon.write_p90_us on wire_write_heavy, http_follower_mixed"},
	{Name: "storage.fsyncs_per_submit", Unit: "count", Better: "lower", Layer: "storage", Moves: "write_p50_us, sat_ops_s on wire_write_heavy"},
	{Name: "storage.wal_bytes_per_submit", Unit: "B", Better: "lower", Layer: "storage", Moves: "write_p50_us on wire_write_heavy"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower", Layer: "storage", Moves: "daemon.read_p90_us on wire_bulk_cold"},
	{Name: "storage.compact_ms", Unit: "ms", Better: "lower", Layer: "storage", Moves: "daemon.write_p90_us on wire_write_heavy"},
	{Name: "storage.compactions", Unit: "count", Better: "lower", Layer: "storage", Moves: "daemon.write_p90_us on wire_write_heavy (count during the paced rung)"},

	{Name: "replication.visible_p50_us", Unit: "us", Better: "lower", Layer: "replication", Moves: "ryw_read_p50_us on http_follower_mixed only"},
	{Name: "replication.visible_p99_us", Unit: "us", Better: "lower", Layer: "replication", Moves: "daemon.read_p90_us on http_follower_mixed only"},
	{Name: "replication.records_per_pull", Unit: "count", Better: "higher", Layer: "replication", Moves: "server_cpu_us_per_op on http_follower_mixed"},
	{Name: "replication.lag_records_max", Unit: "count", Better: "lower", Layer: "replication", Moves: "ryw_read_p50_us on http_follower_mixed"},

	{Name: "daemon.read_p90_us", Unit: "us", Better: "lower", Layer: "daemon", Moves: "the read tail against the real daemon; demoted from end-to-end: a neighbour on the box that delays a tenth of the requests sets it, in every window"},
	{Name: "daemon.write_p90_us", Unit: "us", Better: "lower", Layer: "daemon", Moves: "the submit tail against the real daemon; demoted like daemon.read_p90_us"},
	{Name: "daemon.read_p99_us", Unit: "us", Better: "lower", Layer: "daemon", Moves: "the read tail against the real daemon; demoted from end-to-end before daemon.read_p90_us: its run-to-run spread exceeds any bound the contract allows"},
	{Name: "daemon.write_p99_us", Unit: "us", Better: "lower", Layer: "daemon", Moves: "the submit tail against the real daemon; demoted like daemon.read_p99_us"},
	{Name: "daemon.residual_us", Unit: "us", Better: "lower", Layer: "daemon", Moves: "what the real process adds to the in-process paced rung: read_p50_us everywhere"},

	{Name: "loadgen.paced_self_us", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "queueing and pacing at the frozen rate over the serial round trip: read_p50_us everywhere"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower", Layer: "loadgen", Moves: "validity guard: above 1000 the run is invalid"},
	{Name: "loadgen.achieved_over_offered", Unit: "ratio", Better: "higher", Layer: "loadgen", Moves: "validity guard: below 0.99 the run is invalid"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "what recording spans adds to the serial round trip"},
}

// Lookup finds a catalog entry by name.
func Lookup(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
