package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; TestBenchmarkJSONMatches keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"; empty for per-layer metrics
	Bound  float64 // regression bound as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An op is a query (des-sirius, dist-sirius) or a
// coordinator epoch (fleet-1000); README.md gives each metric's meaning per
// workload. The bounds are set from measured spread on a shared 2-vCPU
// host, whose speed halves in phases of a second to minutes: host times
// are stated at the yardstick's reference speed (yardstick.go), which
// holds most within a few percent, but dist-sirius's scaled wall latencies
// still spread up to 8 %, so every metric timed on the host keeps the
// widest bound; the resident peak spreads by ~5 %; counts and simulated
// outputs repeat within a fraction of a percent. The gated tail is the p90:
// dist-sirius's wall p99 moved 4.9–13 ms between runs of one seed as the
// host's load came and went, beyond any bound the benchmark may set, while
// its p90 stayed within ~15 %. Every run still prints each workload's p99
// and highest supported percentile with their sample counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_qps", "op/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"goodput_qps", "op/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"avg_power_w", "W", "lower", 0.05},
}

// stages are the Sirius stages the stage and live metrics are broken down
// by.
var stages = []string{"ASR", "IMM", "QA"}

// layer defines a per-layer metric. Per-layer metrics carry no bound; every
// one of them reads better lower, as time, bytes, calls, retries and
// decisions taken all do.
func layer(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }

// perLayer are the metrics a traced run reports. A workload that does not
// exercise a layer reports 0 for it: the prediction for that pairing is no
// change.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layer("sim.events_per_op", "count"),
		layer("sim.self_s", "s"),
		layer("runtime.bytes_per_op", "B"),
		layer("runtime.gc_cycles", "count"),
		layer("stage.instances_max", "count"),
	}
	for _, s := range stages {
		defs = append(defs,
			layer("stage."+s+".queue_ms_mean", "ms"),
			layer("stage."+s+".serve_ms_mean", "ms"),
			layer("stage."+s+".util", "ratio"))
	}
	defs = append(defs,
		layer("app.draw_us", "us"),
		layer("core.ingest_ns_p50", "ns"),
		layer("core.ingest_ns_p99", "ns"),
		layer("controlplane.tick_us_p50", "us"),
		layer("controlplane.tick_us_p99", "us"),
		layer("controlplane.ticks_per_op", "count"),
		layer("core.snapshot_us", "us"),
		layer("core.snapshot_bytes", "B"),
		layer("core.plan_nonempty_frac", "ratio"),
		layer("core.boosts.freq", "count"),
		layer("core.boosts.inst", "count"),
		layer("core.withdraws", "count"),
		layer("rpc.calls_per_query", "count"),
		layer("rpc.bytes_per_query", "B"),
		layer("rpc.rtt_us_p50", "us"),
		layer("rpc.rtt_us_p99", "us"),
		layer("dist.submit_us_p50", "us"),
		layer("dist.overhead_us_p50", "us"),
	)
	for _, s := range stages {
		defs = append(defs,
			layer("live."+s+".queue_ms_mean", "ms"),
			layer("live."+s+".serve_ms_mean", "ms"))
	}
	return append(defs,
		layer("loadgen.gen_late_ms_p99", "ms"),
		layer("arbiter.plan_us_p50", "us"),
		layer("arbiter.plan_us_p99", "us"),
		layer("arbiter.actions_per_epoch", "count"),
		layer("fleet.report_us_p50", "us"),
		layer("fleet.grant_us_p50", "us"),
		layer("fleet.grant_fail", "count"),
		layer("fleet.quarantines", "count"),
		layer("fleet.readmissions", "count"),
		layer("fleet.fenced", "count"),
		layer("fleet.converge_s", "s"),
		layer("fleet.recover_s", "s"),
		layer("core.apply_us_p50", "us"),
		layer("trace.overhead_pct", "%"),
	)
}()
