package main

// metric names one reported number and the direction in which it is better.
// Bound, set on end-to-end metrics only, is the share of the base median by
// which the metric may worsen before a change counts as a regression.
// bench_test.go keeps these tables and BENCHMARK.json identical.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics of an untraced run. Host-time metrics are the
// simulator's own cost; the simulated ones (qpm and latencies) are what the
// modelled machine delivers and repeat exactly for a seed.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"host_s_per_sim_s", "s/s", "lower", 0.25},
	{"host_us_per_stmt", "us", "lower", 0.25},
	{"allocs_per_stmt", "count", "lower", 0.02},
	{"live_heap_mib", "MiB", "lower", 0.10},
	{"qpm", "q/min", "higher", 0.05},
	{"p50_ms", "ms", "lower", 0.05},
	{"p999_ms", "ms", "lower", 0.08},
}

// lower and higher define a per-layer metric and the direction in which it
// is better.
func lower(name, unit string) metric  { return metric{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the metrics of a traced run. cpu.<layer> is the share of CPU
// profile samples whose innermost numacs/internal frame is in that package
// (cpu.gc: GC workers; cpu.other: everything else).
var perLayer = []metric{
	lower("sim.step_us_p50", "us"),
	lower("sim.step_us_p999", "us"),
	lower("sim.flow_share", "fraction"),
	lower("sim.flows_per_stmt", "count"),
	lower("sim.active_flows_mean", "count"),
	lower("sched.tick_share", "fraction"),
	lower("sched.tasks_per_stmt", "count"),
	lower("sched.stolen_frac", "fraction"),
	higher("sched.cpu_load", "fraction"),
	lower("sched.queue_mean", "count"),
	lower("exec.mc_kib_per_stmt", "KiB"),
	higher("hw.mc_gib_s", "GiB/s"),
	lower("hw.mc_skew", "ratio"),
	lower("hw.qpi_gib_s", "GiB/s"),
	lower("hw.remote_frac", "fraction"),
	higher("hw.ipc", "ratio"),
	lower("core.submit_us_p50", "us"),
	lower("core.submit_us_p999", "us"),
	lower("plan.lower_us", "us"),
	lower("join.star_us_p50", "us"),
	lower("join.star_p50_ms", "ms"),
	lower("sharedscan.tick_share", "fraction"),
	higher("sharedscan.members_per_pass", "count"),
	lower("sharedscan.solo_frac", "fraction"),
	higher("sharedscan.attach_frac", "fraction"),
	lower("admit.tick_share", "fraction"),
	lower("admit.alpha_p99_ms", "ms"),
	lower("admit.wait_p99_ms", "ms"),
	lower("admit.shed_frac", "fraction"),
	higher("admit.final_limit", "count"),
	lower("adaptive.tick_share", "fraction"),
	lower("adaptive.actions", "count"),
	lower("workload.writers_tick_share", "fraction"),
	lower("delta.merges", "count"),
	lower("delta.merge_pages", "count"),
	lower("delta.write_shed_frac", "fraction"),
	lower("runtime.gc_cpu_frac", "fraction"),
	lower("runtime.gc_per_sim_s", "1/s"),
	lower("runtime.alloc_mib_per_sim_s", "MiB/s"),
	lower("runtime.max_rss_mib", "MiB"),
	lower("bench.load_tick_share", "fraction"),
	lower("bench.trace_overhead", "ratio"),
	lower("cpu.sim", "fraction"),
	lower("cpu.sched", "fraction"),
	lower("cpu.exec", "fraction"),
	lower("cpu.psm", "fraction"),
	lower("cpu.memsim", "fraction"),
	lower("cpu.hw", "fraction"),
	lower("cpu.topology", "fraction"),
	lower("cpu.plan", "fraction"),
	lower("cpu.core", "fraction"),
	lower("cpu.join", "fraction"),
	lower("cpu.sharedscan", "fraction"),
	lower("cpu.admit", "fraction"),
	lower("cpu.adaptive", "fraction"),
	lower("cpu.delta", "fraction"),
	lower("cpu.placement", "fraction"),
	lower("cpu.workload", "fraction"),
	lower("cpu.metrics", "fraction"),
	lower("cpu.colstore", "fraction"),
	lower("cpu.gc", "fraction"),
	lower("cpu.other", "fraction"),
}
