package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; benchmark_test.go keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is how far an end-to-end median may worsen, as a share of the
	// base median, before it counts as a regression. Per-layer metrics
	// have none.
	Bound float64
	E2E   bool
	// Exact marks deterministic values (model outputs and work counts):
	// with the same seed they repeat bit for bit, so any change is real.
	Exact bool
}

const (
	higher = "higher"
	lower  = "lower"
)

// metricDefs is every metric the benchmark reports, end-to-end first. The
// per-layer list is grouped by the repository module it measures.
var metricDefs = []metricDef{
	// End to end, measured with tracing off; medians over repetitions.
	{Name: "sim_ns_per_host_s", Unit: "sim_ns/s", Better: higher, Bound: 0.25, E2E: true},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, E2E: true},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower, Bound: 0.15, E2E: true},

	// Model outputs: what the simulated system achieved. A change meant
	// only to speed up the simulator must leave them bit-identical.
	{Name: "sim_app_mops", Unit: "Mops/sim_s", Better: higher, Exact: true},
	{Name: "sim_p99_ns", Unit: "sim_ns", Better: lower, Exact: true},
	{Name: "sim_hot_in_fast", Unit: "fraction", Better: higher, Exact: true},

	// machine: faults, migrator, solve, commit, PEBS feed, event queue and
	// policy tick, telemetry and audit — everything in a step outside the
	// manager callbacks timed below.
	{Name: "machine.steps", Unit: "count", Better: lower, Exact: true},
	{Name: "machine.step.host_s", Unit: "s", Better: lower},
	{Name: "machine.step.self_host_s", Unit: "s", Better: lower},
	{Name: "machine.step.self_share", Unit: "fraction", Better: lower},
	{Name: "machine.step.p50_ns", Unit: "ns", Better: lower},
	{Name: "machine.step.p99_ns", Unit: "ns", Better: lower},
	{Name: "machine.step.p999_ns", Unit: "ns", Better: lower},
	{Name: "machine.faults", Unit: "count", Better: lower, Exact: true},
	{Name: "machine.migrator.pages", Unit: "count", Better: lower, Exact: true},
	{Name: "machine.migrator.gib", Unit: "GiB", Better: lower, Exact: true},

	// core: the HeMem manager, timed at the machine's calls into it.
	{Name: "core.on_quantum.host_s", Unit: "s", Better: lower},
	{Name: "core.on_quantum.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "core.on_quantum.share", Unit: "fraction", Better: lower},
	{Name: "core.page_in.host_s", Unit: "s", Better: lower},
	{Name: "core.page_in.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "core.page_in.share", Unit: "fraction", Better: lower},
	{Name: "core.on_migrated.host_s", Unit: "s", Better: lower},
	{Name: "core.on_migrated.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "core.on_migrated.share", Unit: "fraction", Better: lower},
	{Name: "core.samples", Unit: "count", Better: lower, Exact: true},
	{Name: "core.promotions", Unit: "count", Better: lower, Exact: true},
	{Name: "core.demotions", Unit: "count", Better: lower, Exact: true},
	{Name: "core.cool_epochs", Unit: "count", Better: lower, Exact: true},

	// pebs: the sample buffer between the machine's feed and the tracker.
	{Name: "pebs.pushed", Unit: "count", Better: lower, Exact: true},
	{Name: "pebs.dropped", Unit: "count", Better: lower, Exact: true},
	{Name: "pebs.drop_frac", Unit: "fraction", Better: lower, Exact: true},

	// memmode: the Memory Mode manager's traffic observer (Monte-Carlo
	// cache model) and cost hooks.
	{Name: "memmode.observe_traffic.host_s", Unit: "s", Better: lower},
	{Name: "memmode.observe_traffic.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "memmode.observe_traffic.share", Unit: "fraction", Better: lower},
	{Name: "memmode.cost.host_s", Unit: "s", Better: lower},
	{Name: "memmode.cost.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "memmode.cost.share", Unit: "fraction", Better: lower},
	{Name: "memmode.rows_built", Unit: "count", Better: lower, Exact: true},
	{Name: "memmode.rows_reused", Unit: "count", Better: higher, Exact: true},
	{Name: "memmode.row_reuse_frac", Unit: "fraction", Better: higher, Exact: true},

	// vm and mem: page metadata and device wear (the paper's Fig 16).
	{Name: "vm.metadata_mib", Unit: "MiB", Better: lower, Exact: true},
	{Name: "vm.touched_pages", Unit: "count", Better: lower, Exact: true},
	{Name: "mem.nvm.write_gib", Unit: "GiB", Better: lower, Exact: true},

	// bench: the parallel sweep engine, from its progress narration.
	{Name: "bench.cells", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cell.mean_s", Unit: "s", Better: lower},
	{Name: "bench.sweep.busy_frac", Unit: "fraction", Better: higher},

	// Go runtime, over the timed window.
	{Name: "go.alloc_mib_per_sim_s", Unit: "MiB/sim_s", Better: lower},
	{Name: "go.gc_cycles", Unit: "count", Better: lower},
	{Name: "go.gc_pause_s", Unit: "s", Better: lower},

	// Tracing itself: how much the traced repetition's window slowed.
	{Name: "trace.overhead_frac", Unit: "fraction", Better: lower},
}

// metricByName indexes metricDefs.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.Name] = d
	}
	return m
}()

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads read the same here as in any script using it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
