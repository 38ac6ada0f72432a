package main

import "fmt"

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics every untraced run reports, and the per-layer metrics every
// traced run reports. BENCHMARK.json at the repository root repeats these
// tables for the driver; TestManifestMatchesTables keeps the two equal.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// operations says what p50_ms times on each workload, for the table a run
// prints.
var operations = map[string]string{
	epochName: "one ingest + analyze of world-batch",
	crawlName: "one campaign over world-live (Run + Merge + Save)",
	hotName:   "one request",
	churnName: "one cycle (1 reload + 40 cold queries)",
}

var workloads = []workloadDef{
	{"epoch-batch", "one epoch as a researcher runs it: measure 150 countries into a fresh store, then score and graph it from disk; pipeline, corpusstore, dataset and depgraph do the work, the daemon and sockets none"},
	{"crawl-federated", "the live path: signed shards to loopback vantages that probe DNS and TLS and fsync a journal per site, then merge and save; scoring, graph and daemon do none of the work"},
	{"serve-hot", "every valid query pre-rendered, then drawn Zipf(1.1) over one keep-alive loopback connection; the webdepd hit path, obs upkeep, net/http and the socket do the work, the store none"},
	{"serve-churn", "the same daemon used the other way: POST /reload then a 40-query dashboard cold, in a loop; store load, index build and cold renders do the work and the hit path is idle"},
}

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median an end-to-end metric may worsen by; the
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The driver wants every end-to-end metric from every workload, so the
// names are the ones all four share, and "operation" is fixed per workload.
// The phase-level numbers the issue names — ingest/analyze, reload/cold
// dashboard, hot rps and p99 — are printed beside them as details.
//
// p50_ms is the only timing: rates that count every stall (hot_rps) spread
// 20% to 50% over ten runs on this sandbox, and a rate taken from the median
// is p50_ms again in another unit. Its bound is the widest the driver
// allows: the sandbox has slow phases, a minute or more long, in which
// every workload runs 10% to 40% slower, the quartile spread of ten runs
// measured 3% to 17% (README.md, "Measured spread"), and a bound inside the
// spread would leave every later comparison unresolved.
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower", 0.25},
	{"store_bytes_per_site", "B", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"worldgen.build_ms", "ms", "lower", 0},
	{"worldgen.sites_per_s", "1/s", "higher", 0},
	{"pipeline.enrich_ms", "ms", "lower", 0},
	{"pipeline.enrich_allocs_per_site", "count", "lower", 0},
	{"corpusstore.append_ms", "ms", "lower", 0},
	{"corpusstore.finalize_ms", "ms", "lower", 0},
	{"corpusstore.bytes_written", "B", "lower", 0},
	{"corpusstore.shard_write_busy_ms", "ms", "lower", 0},
	{"corpusstore.open_ms", "ms", "lower", 0},
	{"corpusstore.decode_ms", "ms", "lower", 0},
	{"corpusstore.decode_allocs_per_row", "count", "lower", 0},
	{"corpusstore.score_ms", "ms", "lower", 0},
	{"corpusstore.score_allocs_per_row", "count", "lower", 0},
	{"corpusstore.load_ms", "ms", "lower", 0},
	{"corpusstore.load_alloc_mb", "MB", "lower", 0},
	{"dataset.tally_ms", "ms", "lower", 0},
	{"dataset.index_build_ms", "ms", "lower", 0},
	{"dataset.index_allocs", "count", "lower", 0},
	{"depgraph.from_store_ms", "ms", "lower", 0},
	{"depgraph.tally_ms", "ms", "lower", 0},
	{"depgraph.merge_closure_ms", "ms", "lower", 0},
	{"depgraph.top_spofs_ms", "ms", "lower", 0},
	{"depgraph.build_ms", "ms", "lower", 0},
	{"depgraph.simulate_us", "us", "lower", 0},
	{"classify.layer_ms", "ms", "lower", 0},
	{"checkpoint.append_us_p50", "us", "lower", 0},
	{"checkpoint.fsync_busy_share", "share", "lower", 0},
	{"checkpoint.stream_ms", "ms", "lower", 0},
	{"checkpoint.journal_bytes_per_site", "B", "lower", 0},
	{"resolver.lookup_ms_p50", "ms", "lower", 0},
	{"resolver.busy_share", "share", "lower", 0},
	{"tlsscan.scan_ms_p50", "ms", "lower", 0},
	{"tlsscan.busy_share", "share", "lower", 0},
	{"pipeline.live_site_ms_p50", "ms", "lower", 0},
	{"resilience.retries", "count", "lower", 0},
	{"fedcrawl.run_ms", "ms", "lower", 0},
	{"fedcrawl.merge_ms", "ms", "lower", 0},
	{"fedcrawl.partition_us", "us", "lower", 0},
	{"fedcrawl.waves", "count", "lower", 0},
	{"fedcrawl.redispatch_ratio", "share", "lower", 0},
	{"fedtransport.sign_ms", "ms", "lower", 0},
	{"fedtransport.verify_ms", "ms", "lower", 0},
	{"fedtransport.dispatch_empty_ms", "ms", "lower", 0},
	{"fedtransport.refusals", "count", "lower", 0},
	{"webdepd.parse_ns", "ns", "lower", 0},
	{"webdepd.handler_ns", "ns", "lower", 0},
	{"webdepd.handler_allocs", "count", "lower", 0},
	{"webdepd.handler_ns_parallel", "ns", "lower", 0},
	{"nethttp.inmem_ns", "ns", "lower", 0},
	{"loopback.rtt_ns", "ns", "lower", 0},
	{"loopback.rtt_p99_ns", "ns", "lower", 0},
	{"webdepd.hit_ratio", "share", "higher", 0},
	{"webdepd.body_bytes_mean", "B", "lower", 0},
	{"obs.counter_inc_ns", "ns", "lower", 0},
	{"obs.counter_inc_ns_parallel", "ns", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},
	{"obs.histogram_observe_ns_parallel", "ns", "lower", 0},
	{"webdepd.start_ms", "ms", "lower", 0},
	{"webdepd.reload_ms", "ms", "lower", 0},
	{"webdepd.cold_render_ms.scores", "ms", "lower", 0},
	{"webdepd.cold_render_ms.rankcurve", "ms", "lower", 0},
	{"webdepd.cold_render_ms.coverage", "ms", "lower", 0},
	{"webdepd.cold_render_ms.classes", "ms", "lower", 0},
	{"webdepd.cold_render_ms.spof", "ms", "lower", 0},
	{"webdepd.cold_render_ms.whatif", "ms", "lower", 0},
	{"webdepd.cold_render_ms.epoch", "ms", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"proc.peak_heap_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is a phase-level number printed beside the end-to-end metrics of
// the workload that owns it. It is not in the result line: the driver only
// accepts metrics every workload reports.
type detail struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
	Note    string
}

// pack turns measured values into the result's metric map, in the shape
// defs declares. A value a run did not produce is a bug, not a zero.
func pack(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: run produced no value for %s", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
