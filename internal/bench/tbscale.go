package bench

import (
	"fmt"
	"io"
	"math"

	"github.com/tieredmem/hemem/internal/diurnal"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// This experiment is the showcase for sparse page metadata: a huge
// mapping (64 GB quick, 1 TB full) sees short bursts over small page
// windows separated by long idle spans — the diurnal shape of a
// provisioned-for-peak big-data machine. Two configurations run the same
// schedule:
//
//   - dense: every page's metadata materialized up front
//     (Region.MaterializeAll);
//   - sparse: metadata materializes lazily as bursts touch their
//     windows.
//
// The simulated outcome — burst ops, faults, migrations — must be
// identical; what differs is the cost of simulating it: metadata
// resident bytes are O(touched pages) instead of O(mapped pages).
// Wall-clock numbers are deliberately absent from the table (the output
// is byte-compared across sweep worker counts); the benchmark module's
// diurnal-idle workload measures the simulator's speed on idle spans.
func tbscaleConfig(o Opts) (diurnal.Config, int64) {
	if o.Full {
		cfg := diurnal.Config{
			Name:       "tbscale",
			WorkingSet: 1 * sim.TB,
			Threads:    16,
			Phases: []diurnal.Phase{
				{Duration: 600 * sim.Second},
				{Duration: 60 * sim.Second, WindowLo: 0.00, WindowHi: 0.03},
				{Duration: 900 * sim.Second},
				{Duration: 60 * sim.Second, WindowLo: 0.40, WindowHi: 0.43},
				{Duration: 900 * sim.Second},
				{Duration: 60 * sim.Second, WindowLo: 0.80, WindowHi: 0.83},
				{Duration: 1020 * sim.Second},
			},
		}
		return cfg, 3600 * sim.Second
	}
	cfg := diurnal.Config{
		Name:       "tbscale",
		WorkingSet: 64 * sim.GB,
		Threads:    16,
		Phases: []diurnal.Phase{
			{Duration: 10 * sim.Second},
			{Duration: 5 * sim.Second, WindowLo: 0.00, WindowHi: 0.05},
			{Duration: 20 * sim.Second},
			{Duration: 5 * sim.Second, WindowLo: 0.50, WindowHi: 0.55},
			{Duration: 20 * sim.Second},
		},
	}
	return cfg, 60 * sim.Second
}

// tbRow is one configuration's outcome.
type tbRow struct {
	ops       float64
	faults    int64
	migPages  int64
	touched   int
	total     int
	metaBytes int64
	digest    uint64
}

// tbscaleRun executes the schedule with dense or sparse page metadata.
func tbscaleRun(o Opts, dense bool) tbRow {
	mc := machine.DefaultConfig()
	mc.Seed = o.seed()
	m := machine.New(mc, newHeMem())
	cfg, span := tbscaleConfig(o)
	d := diurnal.New(m, cfg)
	if dense {
		d.Region().MaterializeAll()
	}
	m.Run(span)
	r := tbRow{
		ops:       d.ActiveOps(),
		faults:    m.Faults(),
		migPages:  int64(m.Migrator.Stats().Pages),
		touched:   m.AS.TouchedPages(),
		total:     m.AS.NumPages(),
		metaBytes: m.AS.MetadataBytes(),
	}
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(r.ops))
	dg = mix(dg, uint64(r.faults))
	dg = mix(dg, uint64(r.migPages))
	r.digest = dg
	return r
}

func runTBScale(w io.Writer, o Opts) {
	s := NewSweep("tbscale", o)
	s.Cell("dense", func(CellInfo) any { return tbscaleRun(o, true) })
	s.Cell("sparse", func(CellInfo) any { return tbscaleRun(o, false) })
	res := s.Gather()
	rows := []struct {
		name string
		r    tbRow
	}{
		{"dense", res[0].(tbRow)},
		{"sparse", res[1].(tbRow)},
	}
	tw := table(w)
	fmt.Fprintln(tw, "mode\tburst ops\tfaults\tmig pages\ttouched/total pages\tmetadata MiB\tdigest")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%d/%d\t%.2f\t%016x\n",
			row.name, row.r.ops, row.r.faults, row.r.migPages,
			row.r.touched, row.r.total,
			float64(row.r.metaBytes)/(1<<20), row.r.digest)
	}
	tw.Flush()
	if rows[0].r.digest == rows[1].r.digest {
		fmt.Fprintln(w, "outcome digests MATCH: the sparse run reproduces the dense run exactly")
	} else {
		fmt.Fprintln(w, "outcome digests DIFFER: the sparse run diverged from the dense baseline")
	}
}
