package main

import "voxel/internal/obs"

// metricDef describes one reported number. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; the test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share by which the metric may get worse between two
	// measurements of different commits before it counts as a regression.
	bound float64
	// simulated numbers are outputs of the deterministic simulation: at
	// equal seed they must repeat exactly, so -compare allows no drift.
	simulated bool
}

// endToEnd is what a user of the experiment engine sees. Wall and CPU time
// carry the sandbox's noise (a fixed compute loop varies ±12 % between
// ten-second windows here, and ten runs of a workload spread 3–13 %), hence
// their wide bounds; allocations are exact for equal inputs and move about
// 1 % across seeds; the two simulated statistics repeat exactly at a seed
// and their bounds only cover the spread across seeds.
var endToEnd = []metricDef{
	{name: "trials_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "virtual_s_per_wall_s", unit: "s/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_trial", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_trial", unit: "MB", better: "lower", bound: 0.04},
	{name: "allocs_per_trial", unit: "count", better: "lower", bound: 0.04},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "score_mean", unit: "score", better: "higher", bound: 0.02, simulated: true},
	{name: "bitrate_mean_mbps", unit: "Mbit/s", better: "higher", bound: 0.15, simulated: true},
}

// counterMetrics are the traced run's telemetry counters, by layer.
var counterMetrics = []struct {
	name    string
	counter obs.Counter
	better  string
}{
	{"quic.packets_sent", obs.CPacketsSent, "lower"},
	{"quic.bytes_sent", obs.CBytesSent, "lower"},
	{"quic.retransmit_bytes", obs.CRetransmitBytes, "lower"},
	{"quic.packets_lost", obs.CPacketsLost, "lower"},
	{"quic.ptos", obs.CPTOs, "lower"},
	{"httpsim.requests", obs.CRequests, "lower"},
	{"httpsim.retries", obs.CRetries, "lower"},
	{"httpsim.failed_requests", obs.CFailedRequests, "lower"},
	{"httpsim.failovers", obs.CFailovers, "lower"},
	{"player.segments", obs.CSegments, "higher"},
	{"player.rebuffers", obs.CRebuffers, "lower"},
	{"player.bytes_unreliable", obs.CBytesUnreliable, "higher"},
	{"player.recovered_bytes", obs.CRecoveredBytes, "higher"},
	{"abr.decisions", obs.CAbrDecisions, "lower"},
}

// perLayer lists every per-layer metric of a traced run, in report order:
// spans, profile roll-up, counters, layer drivers, overheads.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	defs := []metricDef{
		lower("video.load_s", "s"),
		lower("dash.build_s", "s"),
		lower("trace.load_s", "s"),
		lower("exp.cell_s_p50", "s"),
		lower("sweep.shard_run_s", "s"),
		lower("sweep.merge_s", "s"),
		lower("obs.export_s", "s"),
		lower("sweep.checkpoint_bytes", "B"),
	}
	for _, l := range layers {
		defs = append(defs, lower(l+".cpu_s", "s"))
	}
	for _, l := range layers {
		defs = append(defs, lower(l+".alloc_mb", "MB"))
	}
	for _, c := range counterMetrics {
		defs = append(defs, metricDef{name: c.name, unit: "count", better: c.better, simulated: true})
	}
	defs = append(defs,
		metricDef{name: "quic.goodput_ratio", unit: "ratio", better: "higher", simulated: true},
		metricDef{name: "httpsim.success_ratio", unit: "ratio", better: "higher", simulated: true},
		metricDef{name: "netem.utilization", unit: "ratio", better: "higher", simulated: true},
		metricDef{name: "player.bufratio_p90_pct", unit: "%", better: "lower", simulated: true},
		lower("exp.cpu_us_per_packet", "us"),
		lower("sim.ns_per_event", "ns"),
		lower("netem.ns_per_datagram", "ns"),
		lower("netem.allocs_per_datagram", "count"),
		lower("netem.impaired_ns_per_datagram", "ns"),
		lower("quic.bulk_ns_per_mb", "ns"),
		lower("quic.allocs_per_mb", "count"),
		lower("quic.lossy_unreliable_ns_per_mb", "ns"),
		lower("httpsim.ns_per_request", "ns"),
		lower("httpsim.allocs_per_request", "count"),
		lower("player.ns_per_segment", "ns"),
		lower("abr.ns_per_decision", "ns"),
		lower("qoe.ns_per_score", "ns"),
		lower("video.synth_us_per_segment", "us"),
		lower("prep.analyze_us_per_segment", "us"),
		lower("dash.encode_mpd_ms", "ms"),
		lower("dash.encode_compact_ms", "ms"),
		lower("exp.assemble_us_per_trial", "us"),
		lower("sweep.checkpoint_write_ms", "ms"),
		lower("sweep.checkpoint_load_ms", "ms"),
		lower("obs.export_us_per_trial", "us"),
		lower("stats.sketch_ns_per_add", "ns"),
		lower("obs.overhead_pct", "%"),
		lower("runtime.peak_rss_mb", "MB"),
	)
	return defs
}
