package main

// The metric dictionary. BENCHMARK.json lists the same names and units
// (metrics_test.go keeps the two in step); README.md says what each one
// measures.

const (
	paperSweep     = "paper-sweep"
	shardedStencil = "sharded-stencil"
	sweepdMix      = "sweepd-mix"
)

// metricDef names one metric, its unit, and the workloads whose runs
// exercise it (nil = every workload).
type metricDef struct {
	Name string
	Unit string
	On   []string
}

func (d metricDef) exercisedBy(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onPS   = []string{paperSweep}
	onSS   = []string{shardedStencil}
	onSM   = []string{sweepdMix}
	onPSSM = []string{paperSweep, sweepdMix}
	onPSSS = []string{paperSweep, shardedStencil}
)

// endToEnd is reported by plain (--trace 0) runs of every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", nil},
	{"cells_per_s", "1/s", nil},
	{"p50_ms", "ms", nil},
	{"p99_ms", "ms", nil},
	{"sat_rps", "1/s", nil},
	{"setup_s", "s", nil},
	{"peak_heap_mib", "MiB", nil},
}

// perLayer is reported by traced (--trace 1) runs. Layer names are the
// internal/ package names; "self.*" are span self times per operation.
var perLayer = []metricDef{
	{"figures.fig04_s", "s", onPS},
	{"figures.fig05_s", "s", onPS},
	{"figures.fig06_s", "s", onPS},
	{"figures.fig07_s", "s", onPS},
	{"figures.fig08_s", "s", onPS},
	{"figures.fig09_s", "s", onPS},
	{"figures.fig10_s", "s", onPS},
	{"figures.fig11_s", "s", onPS},
	{"figures.fig12_s", "s", onPS},
	{"figures.fig13_s", "s", onPS},
	{"report.render_ms", "ms", onPS},

	{"engine.cells", "count/op", onPSSM},
	{"engine.runs", "count/op", onPSSM},
	{"engine.memo_hits", "count/op", onPSSM},
	{"engine.disk_hits", "count/op", onPSSM},
	{"engine.disk_writes", "count/op", onPSSM},
	{"engine.hit_ratio", "ratio", onPSSM},
	{"engine.lane_busy_frac", "ratio", onPSSM},
	{"engine.key_ns", "ns", nil},
	{"engine.hit_ns", "ns", nil},
	{"engine.miss_overhead_ns", "ns", nil},

	{"core.cell_ms_p50", "ms", onPSSM},
	{"core.cell_ms_p99", "ms", onPSSM},

	{"patterns.cell_ms_p50", "ms", onPS},
	{"patterns.cell_ms_p99", "ms", onPS},
	{"patterns.halo3d_s", "s", onSS},
	{"patterns.sweep3d_s", "s", onSS},

	{"sim.ns_per_event", "ns", nil},
	{"sim.ns_per_switch", "ns", nil},
	{"sim.sim_s_per_host_s", "ratio", nil},
	{"sim.shard_events", "count/op", onSS},
	{"sim.shard_windows", "count/op", onSS},
	{"sim.shard_merged", "count/op", onSS},
	{"sim.shard_merge_skips", "count/op", onSS},
	{"sim.shard_steals", "count/op", onSS},
	{"sim.shard_imbalance_mean", "ratio", onSS},
	{"sim.shard_pred_err", "ratio", onSS},
	{"sim.shard_ns_per_event", "ns", onSS},
	{"sim.shard_worker_busy_frac", "ratio", onSS},

	{"mpi.roundtrip_ns", "ns", nil},
	{"mpi.roundtrip_allocs", "count", nil},
	{"mpi.part_epoch_ns", "ns", nil},
	{"mpi.part_epoch_allocs", "count", nil},
	{"mpi.pready_ns", "ns", nil},
	{"mpi.parrived_ns", "ns", nil},

	{"netsim.inject_ns", "ns", nil},
	{"netsim.msgs", "count/op", onPSSS},
	{"netsim.bytes", "B/op", onPSSS},
	{"netsim.busy_frac", "ratio", nil},

	{"service.handler_ms_p50", "ms", onSM},
	{"service.handler_ms_p99", "ms", onSM},
	{"service.rejected", "count", onSM},
	{"service.server_errors", "count", onSM},

	{"obs.celldone_ns", "ns", onPSSM},
	{"obs.journal_ms", "ms", onPS},

	{"go.gc_cpu_frac", "ratio", nil},
	{"go.alloc_mib", "MiB/op", nil},
	{"go.gc_cycles", "count/op", nil},

	{"loadgen.open_p99_ms", "ms", onSM},
	{"loadgen.late_ms_p99", "ms", onSM},

	{"self.bench_ms", "ms/op", onPSSS},
	{"self.figures_ms", "ms/op", onPS},
	{"self.report_ms", "ms/op", onPS},
	{"self.engine_ms", "ms/op", onPSSM},
	{"self.core_ms", "ms/op", onPSSM},
	{"self.patterns_ms", "ms/op", onPSSS},
	{"self.snap_ms", "ms/op", onPS},
	{"self.sim_ms", "ms/op", onSS},
	{"self.service_ms", "ms/op", onSM},
	{"self.loadgen_ms", "ms/op", onSM},

	{"trace.overhead_ratio", "ratio", nil},
	{"probes.iid_frac", "ratio", nil},
}
