package main

// metricDef is one reported metric: its unit, which direction is better,
// and — for a per-layer metric — the end-to-end metric (on the named
// workload) it should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd is every end-to-end metric. The generic names stand for each
// workload's own operation: p50_ms is oneshot_s (in ms) on oneshot,
// discover_p50_ms on discover-cold, job_p50_ms on serve-warm and
// append_p50_ms on serve-mixed; ops_per_s is pipelines/s, discoveries/s,
// jobs_per_s, and on serve-mixed (whose writer is paced) the reader
// jobs_per_s. Every run prints the p90s and failed_frac beside them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"p50_ms", "ms", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"heap_mb", "MiB", "lower", ""},
}

// The end-to-end targets of the per-layer metrics.
const (
	oneshotS  = "p50_ms on oneshot (oneshot_s)"
	discover  = "p50_ms on discover-cold (discover_p50_ms)"
	jobWarm   = "p50_ms and ops_per_s on serve-warm (job_p50_ms, jobs_per_s)"
	jobs      = "p50_ms and ops_per_s on serve-warm, ops_per_s on serve-mixed (job_p50_ms, jobs_per_s)"
	appendP50 = "p50_ms on serve-mixed (append_p50_ms)"
	setupS    = "setup_s on discover-cold"
	every     = "every workload's p50_ms and heap_mb"
)

// layerMetrics is every per-layer metric. A traced run reports all of
// them; a layer its workload does not exercise reads 0. Counts and times
// are per operation.
var layerMetrics = []metricDef{
	{"csvio.load_s", "s", "lower", oneshotS},
	{"csvio.rows_per_s", "1/s", "higher", oneshotS},
	{"csvio.ingest_chunks", "count", "lower", oneshotS},
	{"csvio.merge_remaps", "count", "lower", oneshotS},
	{"csvio.append_ms", "ms", "lower", appendP50},
	{"restruct.ms", "ms", "lower", oneshotS},
	{"restruct.fd_splits_ms", "ms", "lower", oneshotS},
	{"restruct.hidden_objects_ms", "ms", "lower", oneshotS},
	{"eer.translate_ms", "ms", "lower", oneshotS},
	{"appscan.scan_ms", "ms", "lower", oneshotS + "; predicted: no measurable move"},
	{"appscan.joins", "count", "higher", oneshotS + "; predicted: no measurable move"},
	{"storage.open_ms", "ms", "lower", discover},
	{"storage.sections", "count", "lower", discover},
	{"storage.snapshot_s", "s", "lower", setupS},
	{"ind.discovery_ms", "ms", "lower", discover},
	{"ind.distinct_queries", "count", "lower", discover},
	{"ind.inds_tested", "count", "lower", discover},
	{"ind.nei_escalated", "count", "lower", discover},
	{"fd.rhs_ms", "ms", "lower", discover},
	{"fd.checks", "count", "lower", discover},
	{"fd.rows_scanned", "count", "lower", discover},
	{"table.refinements", "count", "lower", discover},
	{"table.refine_dense", "count", "higher", discover},
	{"table.refine_map", "count", "lower", discover},
	{"table.prefix_hits", "count", "higher", discover},
	{"table.delta_refines", "count", "higher", appendP50},
	{"table.epoch_pins", "count", "lower", appendP50},
	{"stats.hits", "count", "higher", discover},
	{"stats.misses", "count", "lower", discover},
	{"stats.hit_ratio", "ratio", "higher", discover},
	{"stats.shared_hits", "count", "higher", jobWarm},
	{"sketch.prunes", "count", "higher", discover},
	{"sketch.escalations", "count", "lower", discover},
	{"sketch.prune_ratio", "ratio", "higher", discover},
	{"core.revalidate_ms", "ms", "lower", appendP50},
	{"core.revalidations", "count", "lower", appendP50},
	{"core.reescalations", "count", "lower", appendP50},
	{"core.fd_reused_share", "ratio", "higher", appendP50},
	{"core.fd_delta_checked_share", "ratio", "lower", appendP50},
	{"core.fd_refuted_share", "ratio", "higher", appendP50},
	{"core.fd_broken_share", "ratio", "lower", appendP50},
	{"core.ind_reused_share", "ratio", "higher", appendP50},
	{"core.ind_recounted_share", "ratio", "lower", appendP50},
	{"core.ind_redecided_share", "ratio", "lower", appendP50},
	{"serve.queue_wait_ms", "ms", "lower", jobs},
	{"serve.run_ms", "ms", "lower", jobs},
	{"serve.client_overhead_ms", "ms", "lower", jobs},
	{"serve.polls_per_job", "count", "lower", jobs},
	{"serve.refused", "count", "lower", jobs},
	{"serve.pool_hits", "count", "higher", jobs},
	{"serve.pool_misses", "count", "lower", jobs},
	{"serve.pool_evictions", "count", "lower", jobs},
	{"runtime.gc_cpu_frac", "ratio", "lower", every},
	{"runtime.gc_cycles", "count", "lower", every},
	{"runtime.alloc_bytes_per_op", "B/op", "lower", every},
	{"other.self_ms", "ms", "lower", every},
}
