package main

// metricDef names one reported metric. Moves says, for a per-layer
// metric, which end-to-end metric on which workload it should move, and
// for an end-to-end metric how each workload measures it.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are the metrics a user of funseeker sees. Every workload
// reports every one; an op is one binary on corpus-cold, one request on
// analyze-hot and one batch upload on cluster-batch.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "input generation, server start and warm-up; median of three set-ups in the run"},
	{"mb_s", "MB/s", "higher", "ELF MB completed per second: closed loop (corpus-cold), time spent uploading (cluster-batch), at the max_rps step (analyze-hot)"},
	{"p50_ms", "ms", "lower", "median op latency, median over time windows; analyze-hot times each request from its due time at the fixed rate"},
	{"tail_ms", "ms", "lower", "highest percentile with at least ten samples beyond it, median over time windows; percentile and count on the latency lines"},
	{"max_rps", "1/s", "higher", "analyze-hot: completed rate at the highest ladder rate meeting the tail limit without backlog; closed loops: ops per second"},
	{"f1", "ratio", "higher", "micro-F1 against the synth ground truth over the distinct images; every response must equal its image's result"},
	{"alloc_b_per_b", "B/B", "lower", "heap bytes allocated per input byte: in-process engine (corpus-cold), funseekerd memstats (servers)"},
	{"rss_mb", "MB", "lower", "peak resident set (VmHWM) during the measurement: the harness holding the engine (corpus-cold), the server processes otherwise"},
	{"converge_ms", "ms", "lower", "op completion until a later reader finds the result: engine LRU (corpus-cold), the node's store (analyze-hot), the router's count of replica writes (cluster-batch)"},
}

// perLayer are the traced run's numbers. A layer a workload's request
// path does not cross reads 0 on that workload.
var perLayer = []metricDef{
	{"elfx.load_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold"},
	{"analysis.sweep_ms_per_mb.small", "ms/MB", "lower", "mb_s on corpus-cold (images below 256 KiB .text)"},
	{"analysis.sweep_ms_per_mb.large", "ms/MB", "lower", "tail_ms on corpus-cold (256 KiB .text and above)"},
	{"analysis.sweep_alloc_b_per_b", "B/B", "lower", "alloc_b_per_b on corpus-cold"},
	{"analysis.eh_parse_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold via its C++ and -nocet share"},
	{"analysis.landing_pad_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold via its C++ and -nocet share"},
	{"analysis.fde_index_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold via its -nocet share"},
	{"core.identify_self_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold (filter, tail-call and fuse on a built context)"},
	{"core.identify_alloc_b_per_b", "B/B", "lower", "alloc_b_per_b on corpus-cold"},
	{"core.entries", "count", "higher", "guards f1 (exact count over the distinct inputs)"},
	{"core.tail_accept_ratio", "ratio", "higher", "guards f1 (tail-call targets kept / direct jump refs examined)"},
	{"engine.self_ms_per_mb", "ms/MB", "lower", "mb_s on corpus-cold (traced engine.Analyze minus the layer replay)"},
	{"engine.queue_wait_ms.p50", "ms", "lower", "tail_ms on corpus-cold and analyze-hot"},
	{"engine.queue_wait_ms.tail", "ms", "lower", "tail_ms on corpus-cold and analyze-hot"},
	{"engine.hit_us", "us", "lower", "p50_ms on analyze-hot (in-process Analyze of an LRU-resident image)"},
	{"engine.lru_share", "ratio", "higher", "p50_ms and tail_ms on analyze-hot"},
	{"engine.store_share", "ratio", "lower", "p50_ms and tail_ms on analyze-hot"},
	{"engine.cold_share", "ratio", "lower", "p50_ms and tail_ms on analyze-hot"},
	{"engine.coalesced_share", "ratio", "lower", "p50_ms and tail_ms on analyze-hot"},
	{"store.get_us.p50", "us", "lower", "tail_ms on analyze-hot, converge_ms on cluster-batch"},
	{"store.put_us.p50", "us", "lower", "tail_ms on analyze-hot, converge_ms on cluster-batch"},
	{"funseekerd.http_ms.p50", "ms", "lower", "p50_ms on analyze-hot (client latency minus server elapsed_ms)"},
	{"funseekerd.tier_ms.lru", "ms", "lower", "tail_ms on analyze-hot"},
	{"funseekerd.tier_ms.store", "ms", "lower", "tail_ms on analyze-hot"},
	{"funseekerd.tier_ms.cold", "ms", "lower", "tail_ms on analyze-hot"},
	{"funseekerd.batch_gap_ms.p50", "ms", "lower", "mb_s on cluster-batch (gap between consecutive NDJSON records)"},
	{"funseekerd.result_get_ms.p50", "ms", "lower", "converge_ms on cluster-batch"},
	{"funseekerd.result_put_ms.p50", "ms", "lower", "converge_ms on cluster-batch"},
	{"lb.hop_ms.p50", "ms", "lower", "mb_s on cluster-batch (same warm image via the router minus direct to its owner)"},
	{"lb.replica_write_ratio", "ratio", "higher", "converge_ms on cluster-batch (replica writes / members, expected 1.0)"},
	{"harness.late_ms.tail", "ms", "lower", "trust in analyze-hot latencies (open-loop generator lateness)"},
	{"harness.trace_overhead", "ratio", "lower", "trust in the traced numbers (untraced / traced MB/s of the layer replay that gives them; 1 is no overhead)"},
}
