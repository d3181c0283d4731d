package main

import "runtime"

// layerMetrics fills the per-layer figures a traced run measures from
// its own traffic: harness validity, transport timings from httptrace,
// the benchmark's verify cost, and the edges' counter deltas.
func (b *bench) layerMetrics(m metricSet, w workload, e *env, untraced, traced *phase, d counters,
	lookups, unresolved, evicted float64) {
	tr := b.tracer
	ms := func(v float64) float64 { return v / 1e6 } // ns → ms
	addQ := func(name, unit string, dd dist, f func(float64) float64) {
		t, _, _ := dd.tail()
		m.add(name+"_p50_"+unit, unit, f(dd.median()))
		m.add(name+"_p99_"+unit, unit, f(orMax(t, dd)))
	}
	sec := func(v float64) float64 { return v * 1000 } // s → ms

	// loadharness: validity of the schedule.
	late, _, _ := traced.field(func(s sample) float64 { return float64(s.late) }).tail()
	m.add("loadharness.late_p99_ms", "ms", late*1000)
	addQ("loadharness.pool_wait", "ms", traced.field(func(s sample) float64 { return float64(s.pool) }), sec)
	m.add("loadharness.error_rate", "ratio", ratio(float64(traced.failures()+untraced.failures()),
		float64(traced.attempted()+untraced.attempted())))

	// transport: connection wait, time to first byte, body.
	addQ("transport.conn_wait", "ms", tr.byName("transport.conn"), ms)
	addQ("transport.ttfb", "ms", tr.byName("transport.ttfb"), ms)
	body := tr.byName("transport.body")
	addQ("transport.body", "ms", body, ms)
	var bodyNS float64
	for _, v := range body {
		bodyNS += v
	}
	m.add("transport.body_mbps", "MB/s", ratio(float64(traced.bytes())/1e6, bodyNS/1e9))
	m.add("transport.new_conns", "count", float64(tr.newConns))
	m.add("transport.open_conns_max", "count", float64(e.conns.maxOpen))
	m.add("transport.busy_conns_max", "count", float64(e.conns.maxInUse))

	// client: the benchmark's own byte check.
	m.add("client.verify_us_per_mb", "us", ratio(float64(tr.verifyNS)/1e3, float64(tr.verifyBytes)/1e6))
	m.add("client.verify_share", "ratio", ratio(float64(tr.verifyNS), bodyNS))

	// server counters over the measured phases.
	hits := d["scdn_local_hits_total"] + d["scdn_peer_hits_total"] + d["scdn_origin_fetches_total"]
	m.add("server.local_hits", "count", d["scdn_local_hits_total"])
	m.add("server.peer_hits", "count", d["scdn_peer_hits_total"])
	m.add("server.origin_fetches", "count", d["scdn_origin_fetches_total"])
	m.add("server.peer_share", "ratio", ratio(d["scdn_peer_hits_total"]+d["scdn_origin_fetches_total"], hits))
	m.add("server.range_requests", "count", d["scdn_range_requests_total"])
	m.add("server.multipart", "count", d["scdn_range_multipart_total"])
	m.add("server.segment_fetches", "count", d["scdn_segment_fetch_requests_total"])
	m.add("server.segment_pulls", "count", d["scdn_segment_pulls_total"])
	m.add("server.unavailable", "count", d["scdn_churn_unavailable_total"])
	m.add("server.fetch_failures", "count", d["scdn_fetch_failures_total"]+d["scdn_segment_fetch_failures_total"])

	// catalog.
	m.add("catalog.lookups", "count", lookups)
	m.add("catalog.unresolved", "count", unresolved)

	// storage.
	mats := d["scdn_store_materialize_total"]
	units := w.servedUnits()
	m.add("storage.materializations", "count", mats)
	m.add("storage.materialized_mb", "MB", d["scdn_store_materialize_bytes_total"]/1e6)
	m.add("storage.resident_ratio", "ratio", ratio(units-mats-d["scdn_segment_pulls_total"], units))
	m.add("storage.evictions", "count", evicted)
	m.add("storage.fadvise_sequential", "count", d["scdn_store_fadvise_sequential_total"])
	m.add("storage.fadvise_dontneed", "count", d["scdn_store_fadvise_dontneed_total"])

	// ingest.
	m.add("ingest.uploads", "count", d["scdn_ingest_uploads_total"])
	m.add("ingest.upload_mb", "MB", d["scdn_ingest_upload_bytes_total"]/1e6)
	m.add("ingest.digest_rejects", "count", d["scdn_ingest_digest_rejects_total"])
	m.add("ingest.repair_copies", "count", d["scdn_ingest_repair_copies_total"])
	m.add("ingest.repair_copy_mb", "MB", d["scdn_ingest_repair_copy_bytes_total"]/1e6)
	m.add("ingest.regenerated", "count", d["scdn_ingest_repair_regenerated_total"])

	// Tracing overhead: the traced reference phase against the untraced
	// one just before it, same rate and length.
	ul, tl := untraced.latencies(classRead), traced.latencies(classRead)
	m.add("trace.overhead_p50_pct", "%", 100*(ratio(tl.median(), ul.median())-1))
	cpuU := ratio(float64(untraced.cpu.Microseconds()), float64(untraced.attempted()))
	cpuT := ratio(float64(traced.cpu.Microseconds()), float64(traced.attempted()))
	m.add("trace.overhead_cpu_pct", "%", 100*(ratio(cpuT, cpuU)-1))
	m.add("trace.untraced_cpu_us_per_op", "us", cpuU)

	m.add("host.nproc", "count", float64(runtime.NumCPU()))
	m.add("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
}

// selfTimeMetrics reports each request-path span's mean self time per
// traced request, plus the span count.
func (b *bench) selfTimeMetrics(m metricSet) {
	tr := b.tracer
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	n := 0
	for _, s := range tr.spans {
		if s.Name == "request" {
			n++
		}
	}
	spans := len(tr.spans)
	tr.mu.Unlock()
	for _, name := range []string{"request", "loadharness.pool_wait", "transport.conn",
		"transport.ttfb", "transport.body", "client.verify"} {
		m.add("selftime."+name+"_us", "us", ratio(float64(self[name])/1e3, float64(n)))
	}
	m.add("trace.spans", "count", float64(spans))
}
