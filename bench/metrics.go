package main

import "encoding/json"

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures when -seconds is not given.
const defaultSeconds = 8

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer rows
// carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef is one workloads row of BENCHMARK.json plus the factory
// the harness runs.
type workloadDef struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadDef{
	{"sweep", "paper-reproduction flow: 23 small diverse scenario sweeps; the only place runner, store, experiment, media, cc and stats do real work", func() workload { return &sweepWorkload{} }},
	{"cell", "one big homogeneous deployment (200 VCA UEs, 4 cells): sim+ran+vca+capture are ~98% of wall, so simulator gains show and correlator gains do not", func() workload { return &cellWorkload{} }},
	{"correlate-offline", "the batch estimator alone over 200 tapped streams: 100% correlator, the counterweight to serve-*, which run its streaming twin", func() workload { return &correlateWorkload{} }},
	{"serve-tick100", "real athena-serve over loopback TCP, 100 ms batches (~67 records): per-record work (JSON decode, live feed, rollup fold) dominates a request", func() workload { return &serveWorkload{tick: tick100} }},
	{"serve-tick10", "same server, 10 ms batches (~7 records): per-request cost (accept, route, envelope, session lock) dominates; moves opposite to serve-tick100", func() workload { return &serveWorkload{tick: tick10} }},
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; bench/README.md says what "unit" and "op" mean on
// each workload. The bounds are what the box the benchmark was defined
// on supports, not what one would wish: identical work ran up to 65%
// apart in speed within three minutes there (README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"units_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
}

// experimentIDs are the registry artifacts that get their own per-layer
// wall-time row. BENCHMARK.json is static, so the list is too; the sweep
// workload notes any drift from the live registry.
var experimentIDs = []string{
	"F3", "F4", "F5", "F6", "F7", "F8", "F9a", "F9b", "F10",
	"M1", "M2", "M3", "M4", "A1", "A2", "A3", "A4",
	"S1", "S2", "S3", "S4", "S8", "S9",
}

// families are the scenario workload families with a per-layer row.
var families = []string{"vca", "cloud-gaming", "bulk-transfer", "audio-only"}

// traceLayers are the layers of the span self-time table: the prefix of
// a span name before its first dot.
var traceLayers = []string{"bench", "experiment", "scenario", "sim", "ran", "core", "session", "store", "http"}

// perLayer are the single-layer rows of the traced run. A traced run
// prints all of them; a row its workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	rows := []metricDef{
		// sim: cell
		{"sim.event_ns", "ns", "lower", 0},
		{"sim.ticker_ns", "ns", "lower", 0},
		{"sim.events_per_ue_s", "count", "lower", 0},
		{"sim.heap_depth_max", "count", "lower", 0},
		{"sim.est_share_cell", "frac", "lower", 0},
		{"sim.shards.speedup", "x", "higher", 0},
		{"sim.shards.barrier_wait_frac", "frac", "lower", 0},
		{"sim.shards.windows", "count", "lower", 0},
		{"sim.shards.mailbox_posts", "count", "lower", 0},
		// ran: cell
		{"ran.slot_ns_per_ue", "ns", "lower", 0},
		{"ran.tbs_per_ue_s", "count", "lower", 0},
		{"ran.harq_retx_per_ue_s", "count", "lower", 0},
		{"ran.grants_requested_frac", "frac", "lower", 0},
		{"ran.tb_wasted_frac", "frac", "lower", 0},
		{"ran.drops", "count", "lower", 0},
		// scenario: cell, and the small-N rows on sweep
		{"scenario.run_serial_ms_per_ue_s", "ms", "lower", 0},
		{"scenario.run_sharded_ms_per_ue_s", "ms", "lower", 0},
		{"scenario.correlate_stage_frac", "frac", "lower", 0},
		{"scenario.simulate_ms_per_ue_s", "ms", "lower", 0},
		{"scenario.digest_ms", "ms", "lower", 0},
		{"scenario.streams_tap_ms", "ms", "lower", 0},
		{"scenario.chunks_ms", "ms", "lower", 0},
		{"scenario.allocs_per_ue_s", "count", "lower", 0},
		{"scenario.alloc_kb_per_ue_s", "KB", "lower", 0},
		{"scenario.single_ue_ms_per_s", "ms", "lower", 0},
	}
	for _, f := range families {
		rows = append(rows, metricDef{"scenario.family." + f + ".ms_per_ue_s", "ms", "lower", 0})
	}
	rows = append(rows,
		// core: correlate-offline
		metricDef{"core.correlate_ns_per_pkt", "ns", "lower", 0},
		metricDef{"core.correlate_allocs_per_pkt", "count", "lower", 0},
		metricDef{"core.correlate.join_frac", "frac", "lower", 0},
		metricDef{"core.correlate.reconstruct_frac", "frac", "lower", 0},
		metricDef{"core.correlate.attribution_frac", "frac", "lower", 0},
		metricDef{"core.attribute_ns_per_pkt", "ns", "lower", 0},
		metricDef{"core.digest_ns_per_pkt", "ns", "lower", 0},
		metricDef{"core.live_ns_per_record", "ns", "lower", 0},
		metricDef{"core.live_ns_per_pkt", "ns", "lower", 0},
		metricDef{"core.live_allocs_per_record", "count", "lower", 0},
		metricDef{"core.live_over_batch", "x", "lower", 0},
		metricDef{"core.stream_offline_mismatch.vca", "frac", "lower", 0},
		metricDef{"core.stream_offline_mismatch.mixed", "frac", "lower", 0},
		// session: serve-*
		metricDef{"session.decode_ns_per_kb", "ns", "lower", 0},
		metricDef{"session.feed_ns_per_record", "ns", "lower", 0},
		metricDef{"session.feed_allocs_per_record", "count", "lower", 0},
		metricDef{"session.feed_bytes_per_record", "B", "lower", 0},
		metricDef{"session.handler_us_per_batch", "us", "lower", 0},
		metricDef{"session.http_overhead_us_per_batch", "us", "lower", 0},
		metricDef{"session.post_p99_us", "us", "lower", 0},
		metricDef{"session.server_feed_p50_us", "us", "lower", 0},
		metricDef{"session.server_feed_p99_us", "us", "lower", 0},
		metricDef{"session.create_us", "us", "lower", 0},
		metricDef{"session.close_us", "us", "lower", 0},
		metricDef{"session.status_us", "us", "lower", 0},
		metricDef{"session.overview_us", "us", "lower", 0},
		metricDef{"session.rejects", "count", "lower", 0},
		// obs: serve-*
		metricDef{"obs.prometheus_us_per_100_sessions", "us", "lower", 0},
		metricDef{"obs.prometheus_bytes_per_session", "B", "lower", 0},
		metricDef{"obs.metrics_json_us", "us", "lower", 0},
	)
	// experiment / runner / store: sweep
	for _, id := range experimentIDs {
		rows = append(rows, metricDef{"experiment." + id + ".wall_ms", "ms", "lower", 0})
	}
	rows = append(rows,
		metricDef{"experiment.sum_over_wall", "frac", "higher", 0},
		metricDef{"experiment.store_wait_ms", "ms", "lower", 0},
		metricDef{"runner.submissions", "count", "lower", 0},
		metricDef{"runner.memo_hit_frac", "frac", "higher", 0},
		metricDef{"store.put_us", "us", "lower", 0},
		metricDef{"store.get_us", "us", "lower", 0},
		metricDef{"store.hit_frac", "frac", "higher", 0},
		metricDef{"store.bytes", "B", "lower", 0},
		// the harness itself: every workload
		metricDef{"bench.gen_late_p99_us", "us", "lower", 0},
		metricDef{"bench.trace_overhead_frac", "frac", "lower", 0},
		metricDef{"bench.build_s", "s", "lower", 0},
	)
	for _, l := range traceLayers {
		rows = append(rows, metricDef{"self_ms." + l, "ms", "lower", 0})
	}
	return rows
}

// benchmarkJSON renders the tables above as the BENCHMARK.json the
// driver reads; a test keeps the committed file equal to it.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to encode
	}
	return append(out, '\n')
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
