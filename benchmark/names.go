package main

// names.go lists every metric the benchmark emits, with its unit.
// BENCHMARK.json carries the same names; a test keeps the two equal.

type metricDef struct{ Name, Unit string }

// endToEndMetrics are all on the host clock.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// countMetrics are the whole-run figures of the traced repetition, from
// the program's RunStats and the Go runtime's allocation counters.
var countMetrics = []metricDef{
	{"sim.events_per_op", "1/op"},
	{"sim.ns_per_event", "ns"},
	{"fabric.msgs_per_op", "1/op"},
	{"fabric.bytes_per_op", "B/op"},
	{"transport.am_per_op", "1/op"},
	{"transport.rdma_per_op", "1/op"},
	{"addrcache.lookups_per_op", "1/op"},
	{"addrcache.hit_rate", "ratio"},
	{"addrcache.evictions_per_op", "1/op"},
	{"mem.pins", "count"},
	{"mem.reg_virt_us", "us"},
	{"core.virt_us_per_get", "us"},
	{"core.virt_us_per_op", "us"},
	{"core.local_share", "ratio"},
	{"host.allocs_per_op", "1/op"},
	{"host.alloc_bytes_per_op", "B/op"},
}

// perLayerMetrics is everything a traced run reports: the whole-run
// counts, the self-time shares, the tracing overhead and the columns
// of every layer driver.
func perLayerMetrics() []metricDef {
	ms := append([]metricDef(nil), countMetrics...)
	for _, n := range shareNames {
		ms = append(ms, metricDef{n, "ratio"})
	}
	ms = append(ms, metricDef{"bench.trace_overhead_pct", "%"})
	for _, dr := range driverTable() {
		for _, c := range columnSuffix {
			if dr.cols&c.col != 0 {
				ms = append(ms, metricDef{dr.name + c.suffix, c.unit})
			}
		}
	}
	return ms
}
