package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and (end-to-end only) bounds; the smoke test
// holds the two together. A metric with a series is the q-quantile of
// that series' samples, pooled over all rounds of the run: the percentile
// belongs to the metric and is the same on every workload, whatever the
// number of samples a run collected (which the result file records).
type metricDef struct {
	name, unit string
	series     string
	q          float64
}

// endToEnd are the metrics an untraced run prints: what a user of the
// three paths would see.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wf_makespan_s", unit: "s"},
	{name: "wf_tail_s", unit: "s"},
	{name: "query_p50_ms", unit: "ms", series: "query_ms", q: 0.5},
	{name: "query_p95_ms", unit: "ms", series: "query_ms", q: 0.95},
	{name: "query_per_s", unit: "1/s"},
	{name: "ingest_mb_per_s", unit: "MB/s"},
	{name: "gather_mb_per_s", unit: "MB/s"},
	{name: "exec_p50_ms", unit: "ms", series: "exec_ms", q: 0.5},
	{name: "exec_p95_ms", unit: "ms", series: "exec_ms", q: 0.95},
	{name: "exec_drain_per_s", unit: "1/s"},
}

// perLayer are the metrics a traced run prints, layer = module name.
var perLayer = []metricDef{
	// workflow path, from provenance.json of the owning workflow stage
	{name: "core.esm_run_busy_s", unit: "s"},
	{name: "core.baseline_busy_s", unit: "s"},
	{name: "core.import_year_busy_s", unit: "s"},
	{name: "core.index_busy_s", unit: "s"},
	{name: "core.tc_preprocess_busy_s", unit: "s"},
	{name: "core.tc_inference_busy_s", unit: "s"},
	{name: "core.tc_georeference_busy_s", unit: "s"},
	{name: "core.final_maps_busy_s", unit: "s"},
	{name: "compss.tasks_done", unit: "count"},
	{name: "compss.worker_idle_share", unit: "share"},
	// workflow path, staged replay
	{name: "esm.step_day_ms", unit: "ms"},
	{name: "esm.to_dataset_ms", unit: "ms"},
	{name: "ncdf.write_mb_per_s", unit: "MB/s"},
	{name: "ncdf.write_bytes_per_day", unit: "B"},
	{name: "ncdf.read_var_ms", unit: "ms"},
	{name: "ncdf.read_file_ms", unit: "ms"},
	{name: "ncdf.decode_mb_per_s", unit: "MB/s"},
	{name: "stream.detect_lag_ms", unit: "ms"},
	{name: "datacube.import_year_s", unit: "s"},
	{name: "datacube.import_cells_per_s", unit: "1/s"},
	{name: "datacube.import_mb_per_s", unit: "MB/s"},
	{name: "indices.baseline_s", unit: "s"},
	{name: "indices.heatwave_year_s", unit: "s"},
	{name: "indices.coldwave_year_s", unit: "s"},
	{name: "tctrack.detect_step_ms", unit: "ms"},
	{name: "ml.detect_fields_ms", unit: "ms"},
	{name: "ml.patches_per_s", unit: "1/s"},
	{name: "viz.write_ppm_ms", unit: "ms"},
	// query path
	{name: "datacube.fused_pass_ms", unit: "ms"},
	{name: "datacube.fused_cells_per_s", unit: "1/s"},
	{name: "datacube.cells_processed", unit: "count"},
	{name: "datacube.ops", unit: "count"},
	{name: "datacube.file_reads", unit: "count"},
	{name: "cubecluster.dispatch_p50_ms", unit: "ms"},
	{name: "cubecluster.import_p50_ms", unit: "ms"},
	{name: "cubecluster.values_p50_ms", unit: "ms"},
	{name: "cubecluster.shard_op_p50_ms", unit: "ms"},
	{name: "cubecluster.shard_op_p99_ms", unit: "ms"},
	{name: "cubecluster.scatter_bytes_per_query", unit: "B"},
	{name: "cubecluster.gather_bytes_per_query", unit: "B"},
	{name: "cubecluster.client_scaling", unit: "ratio"},
	{name: "cubeserver.ping_rtt_ms", unit: "ms"},
	{name: "cubeserver.front_hop_ms", unit: "ms"},
	{name: "cubeserver.values_hop_ms", unit: "ms"},
	{name: "cubeserver.codec_encode_mb_per_s", unit: "MB/s"},
	{name: "cubeserver.codec_decode_mb_per_s", unit: "MB/s"},
	{name: "cubeserver.wire_bytes_out_per_op", unit: "B"},
	{name: "cubeserver.wire_bytes_in_per_op", unit: "B"},
	// request path
	{name: "hpcwaas.submit_p50_ms", unit: "ms", series: "submit_ms", q: 0.5},
	{name: "hpcwaas.submit_p99_ms", unit: "ms", series: "submit_ms", q: 0.99},
	{name: "hpcwaas.get_p50_ms", unit: "ms", series: "get_ms", q: 0.5},
	{name: "hpcwaas.exec_p99_ms", unit: "ms", series: "exec_ms", q: 0.99},
	{name: "hpcwaas.exec_p99_ms_r1000", unit: "ms", series: "exec_low_ms", q: 0.99},
	{name: "hpcwaas.rate_ok", unit: "1/s"},
	{name: "execstore.wait_p50_ms", unit: "ms", series: "wait_ms", q: 0.5},
	{name: "execstore.wait_p99_ms", unit: "ms", series: "wait_ms", q: 0.99},
	{name: "execstore.run_p50_ms", unit: "ms", series: "run_ms", q: 0.5},
	{name: "execstore.submit_direct_us", unit: "us"},
	{name: "execstore.lease_complete_direct_us", unit: "us"},
	{name: "execstore.journal_bytes_per_task", unit: "B"},
	{name: "execstore.shed", unit: "count"},
	{name: "execstore.reclaimed", unit: "count"},
	{name: "execstore.fenced", unit: "count"},
	{name: "execstore.retried", unit: "count"},
	{name: "gen.late_p99_ms", unit: "ms", series: "late_ms", q: 0.99},
	{name: "gen.late_max_ms", unit: "ms", series: "late_ms", q: 1},
	// the process as a whole
	{name: "proc.cpu_user_s", unit: "s"},
	{name: "proc.cpu_sys_s", unit: "s"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.alloc_mb", unit: "MB"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "trace.span_cost_pct", unit: "%"},
}
