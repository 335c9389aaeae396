package main

import (
	"math"
	"time"
)

// metricDef names one reported metric. The lists below and
// BENCHMARK.json at the repository root must agree (a test checks).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndDefs = []metricDef{
	{"txn_per_s", "txn/s", "higher", 0.25},
	{"run_p50_ms", "ms", "lower", 0.25},
	{"run_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.1},
	{"bytes_per_txn", "B", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

var perLayerDefs = []metricDef{
	{name: "sim.cpu_share", unit: "ratio", better: "lower"},
	{name: "sim.events_per_txn", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.dispatch_ns_q1", unit: "ns", better: "lower"},
	{name: "sim.dispatch_ns_q1k", unit: "ns", better: "lower"},
	{name: "sim.shard_imbalance", unit: "ratio", better: "lower"},
	{name: "router.cpu_share", unit: "ratio", better: "lower"},
	{name: "router.grant_ns_p4", unit: "ns", better: "lower"},
	{name: "router.grant_ns_p8", unit: "ns", better: "lower"},
	{name: "router.grant_ns_p16", unit: "ns", better: "lower"},
	{name: "router.allocs_per_grant", unit: "count", better: "lower"},
	{name: "router.contended_frac", unit: "ratio", better: "lower"},
	{name: "link.cpu_share", unit: "ratio", better: "lower"},
	{name: "link.hop_ns", unit: "ns", better: "lower"},
	{name: "link.retries_per_ktxn", unit: "1/ktxn", better: "lower"},
	{name: "link.credit_stalls_per_ktxn", unit: "1/ktxn", better: "lower"},
	{name: "vault.cpu_share", unit: "ratio", better: "lower"},
	{name: "vault.request_ns", unit: "ns", better: "lower"},
	{name: "mem.access_ns", unit: "ns", better: "lower"},
	{name: "vault.row_hit_frac", unit: "ratio", better: "higher"},
	{name: "host.cpu_share", unit: "ratio", better: "lower"},
	{name: "workload.next_ns", unit: "ns", better: "lower"},
	{name: "host.window_wait_frac", unit: "ratio", better: "lower"},
	{name: "core.build_ms", unit: "ms", better: "lower"},
	{name: "topology.build_ms_skiplist", unit: "ms", better: "lower"},
	{name: "topology.build_ms_metacube", unit: "ms", better: "lower"},
	{name: "topology.reroute_ms", unit: "ms", better: "lower"},
	{name: "fault.cpu_share", unit: "ratio", better: "lower"},
	{name: "experiments.worker_busy_frac", unit: "ratio", better: "higher"},
	{name: "obs.overhead_frac", unit: "ratio", better: "lower"},
	{name: "span.write_ms", unit: "ms", better: "lower"},
	{name: "obs.manifest_ms", unit: "ms", better: "lower"},
	{name: "obs.cpu_share", unit: "ratio", better: "lower"},
	{name: "gc.cpu_frac", unit: "ratio", better: "lower"},
	{name: "gc.cycles_per_mtxn", unit: "1/Mtxn", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// metric is one reported value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndInput is what the untraced timed phase measured.
type endToEndInput struct {
	txns    uint64
	wall    time.Duration
	runMs   []float64
	setupS  float64
	mallocs uint64
	bytes   uint64
	rssMB   float64
}

// endToEndMetrics derives the end-to-end metrics. run_p90_ms is left
// out when fewer than tailMin samples lie beyond it.
func endToEndMetrics(in endToEndInput) map[string]float64 {
	txns := float64(in.txns)
	out := map[string]float64{
		"txn_per_s":      txns / in.wall.Seconds(),
		"run_p50_ms":     median(in.runMs),
		"setup_s":        in.setupS,
		"allocs_per_txn": float64(in.mallocs) / txns,
		"bytes_per_txn":  float64(in.bytes) / txns,
		"peak_rss_mb":    in.rssMB,
	}
	if p90, ok := tailPercentile(in.runMs, 0.9); ok {
		out["run_p90_ms"] = p90
	}
	return out
}

// perLayerInput is what the traced run measured.
type perLayerInput struct {
	shares         map[string]float64 // CPU share per layer
	micros         map[string]micro
	counts         *layerCounts
	txns, events   uint64  // untraced phase
	runMsSum       float64 // Σ host ms of the untraced phase's runs
	wall           time.Duration
	workers        int
	shardImbalance float64
	unobservedWall time.Duration
	countedWall    time.Duration
	tracedWall     time.Duration
	gcCPU, usedCPU float64 // seconds, untraced phase
	gcCycles       uint64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics derives the per-layer metrics.
func perLayerMetrics(in perLayerInput) map[string]float64 {
	c := in.counts
	if c == nil {
		c = &layerCounts{}
	}
	ns := func(name string) float64 { return in.micros[name].nsPerOp }
	ktxn := float64(c.txns) / 1e3
	return map[string]float64{
		"sim.cpu_share":                in.shares["sim"],
		"sim.events_per_txn":           ratio(float64(in.events), float64(in.txns)),
		"sim.ns_per_event":             ratio(in.runMsSum*1e6, float64(in.events)),
		"sim.dispatch_ns_q1":           ns("sim.dispatch_q1"),
		"sim.dispatch_ns_q1k":          ns("sim.dispatch_q1k"),
		"sim.shard_imbalance":          in.shardImbalance,
		"router.cpu_share":             in.shares["router"],
		"router.grant_ns_p4":           ns("router.grant_p4"),
		"router.grant_ns_p8":           ns("router.grant_p8"),
		"router.grant_ns_p16":          ns("router.grant_p16"),
		"router.allocs_per_grant":      in.micros["router.grant_p8"].allocsPerOp,
		"router.contended_frac":        ratio(float64(c.contended), float64(c.forwarded)),
		"link.cpu_share":               in.shares["link"],
		"link.hop_ns":                  ns("link.hop"),
		"link.retries_per_ktxn":        ratio(float64(c.retries), ktxn),
		"link.credit_stalls_per_ktxn":  ratio(float64(c.creditStalls), ktxn),
		"vault.cpu_share":              in.shares["vault"],
		"vault.request_ns":             ns("vault.request"),
		"mem.access_ns":                ns("mem.access"),
		"vault.row_hit_frac":           ratio(float64(c.rowHits), float64(c.rowAccesses)),
		"host.cpu_share":               in.shares["host"],
		"workload.next_ns":             ns("workload.next"),
		"host.window_wait_frac":        ratio(float64(c.windowPs), float64(c.windowPs+c.latencyPs)),
		"core.build_ms":                ns("core.build") / 1e6,
		"topology.build_ms_skiplist":   ns("topology.build_skiplist") / 1e6,
		"topology.build_ms_metacube":   ns("topology.build_metacube") / 1e6,
		"topology.reroute_ms":          ns("topology.reroute") / 1e6,
		"fault.cpu_share":              in.shares["fault"],
		"experiments.worker_busy_frac": ratio(in.runMsSum, ms(in.wall)*float64(in.workers)),
		"obs.overhead_frac":            ratio((in.countedWall - in.unobservedWall).Seconds(), in.unobservedWall.Seconds()),
		"span.write_ms":                zeroIfNaN(median(c.spanWriteMs)),
		"obs.manifest_ms":              zeroIfNaN(median(c.manifestMs)),
		"obs.cpu_share":                in.shares["obs"],
		"gc.cpu_frac":                  ratio(in.gcCPU, in.usedCPU),
		"gc.cycles_per_mtxn":           ratio(float64(in.gcCycles), float64(in.txns)/1e6),
		"bench.trace_overhead_frac":    ratio((in.tracedWall - in.wall).Seconds(), in.wall.Seconds()),
	}
}

func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
