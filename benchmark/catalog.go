package main

// metricDef declares one metric as BENCHMARK.json does; the smoke test
// holds the two in agreement.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. The wall-time bounds are wide, 0.25: on the 2-vCPU
// reference machine, other tenants slow the same code by 10-30% for
// minutes at a time (see README.md).
var endToEnd = []metricDef{
	// Median of several complete set-ups: server, templates, boot and
	// warm-up.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.25)},
	// The workload's unit of work per second — patched targets
	// (rollout), applied and rolled-back patches (batch), guest calls
	// (under_load) — as the median over the phase's chunks.
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: bound(0.25)},
	// Median ApplyAll latency as its caller sees it: from provisioning
	// start (rollout), from the call (batch), from the cycle's due time
	// (under_load).
	{Name: "apply_s_p50", Unit: "s", Better: "lower", Bound: bound(0.25)},
	// Host heap bytes allocated in the timed phase per applied patch,
	// net of the guest's own calls (under_load).
	{Name: "alloc_kb_per_patch", Unit: "KB", Better: "lower", Bound: bound(0.10)},
}

// cpuLayers are the packages the traced phase's CPU profile samples are
// attributed to, as cpu.<pkg>_pct shares; samples in other
// kshot/internal packages go to cpu.other_pct and samples with no kshot
// frame to cpu.runtime_pct. cpu.total_s is the process's CPU time over
// the phase.
var cpuLayers = []string{
	"orchestrator", "core", "pipeline", "patchserver", "patch", "binmatch",
	"kernel", "machine", "isa", "mem", "smm", "smmpatch", "sgx", "sgxprep",
	"kcrypto", "obs",
}

// cpuBuckets are every cpu.<bucket>_pct metric's bucket.
func cpuBuckets() []string { return append(append([]string(nil), cpuLayers...), "other", runtimeLayer) }

// spanLayers are the spans whose self time is reported as a share of
// the load threads' time (timed wall time x load threads).
// "orchestrator.self" is orchestrator.run net of its children; the
// patch server's build time comes from its own histogram.
var spanLayers = []string{
	"orchestrator.self", "core.provision", "core.apply_all", "core.rollback",
	"core.close", "patchserver.tree", "patchserver.build",
}

// exactCounters repeat exactly for a seed (compare mode requires it);
// all but pause_us_mean, a virtual time, are declared per-layer
// metrics.
var exactCounters = []metricDef{
	{Name: "patchserver.builds", Unit: "count", Better: "lower"},
	{Name: "patchserver.cache_hits", Unit: "count", Better: "higher"},
	{Name: "patchserver.cache_misses", Unit: "count", Better: "lower"},
	{Name: "patchserver.conns_accepted", Unit: "count", Better: "lower"},
	{Name: "template.misses", Unit: "count", Better: "lower"},
	{Name: "template.forks", Unit: "count", Better: "higher"},
	{Name: "pipeline.smis", Unit: "count", Better: "lower"},
	{Name: "pipeline.batches", Unit: "count", Better: "lower"},
	{Name: "pipeline.singles", Unit: "count", Better: "lower"},
	{Name: "pipeline.retries", Unit: "count", Better: "lower"},
	{Name: "pipeline.degraded", Unit: "count", Better: "lower"},
	{Name: "sgx.ecalls", Unit: "count", Better: "lower"},
	{Name: "mem.private_kb_per_target", Unit: "KB", Better: "lower"},
	{Name: "core.apply_all_n", Unit: "count", Better: "higher"},
}

// pauseUsMean is the virtual OS pause per applied patch, the paper's
// fidelity figure. It is exact for a seed and checked by compare mode,
// but it is a modelled time, not a measurement, so it is not declared.
const pauseUsMean = "pause_us_mean"

// perLayer lists the metrics a traced run reports.
func perLayer() []metricDef {
	var defs []metricDef
	defs = append(defs,
		metricDef{Name: "core.apply_all_s_p50", Unit: "s", Better: "lower"},
		metricDef{Name: "core.apply_all_s_p99", Unit: "s", Better: "lower"},
	)
	for _, s := range spanLayers {
		defs = append(defs, metricDef{Name: s + "_pct", Unit: "%", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "cpu.total_s", Unit: "s", Better: "lower"})
	for _, l := range cpuBuckets() {
		defs = append(defs, metricDef{Name: "cpu." + l + "_pct", Unit: "%", Better: "lower"})
	}
	defs = append(defs, exactCounters...)
	defs = append(defs, metricDef{Name: "workload.guest_ops", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.lag_s_max", Unit: "s", Better: "lower"},
		// Throughput untraced over throughput traced.
		metricDef{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	)
	return defs
}
