package bench

import (
	"fmt"
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/diurnal"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// This file holds the perf cases: eight short seeded scenarios over the
// workload families the paper evaluates (GUPS, FlexKVS, GAP BC), the
// diurnal TB-scale schedule on both stepping loops, a QoS fleet machine,
// the idlepage tracker and Memory Mode. Each returns a digest of its
// simulated outcome, and TestPerfCaseDigests pins every digest to a
// committed value. Each is a shorter variant of an experiment cell, so
// it pins that cell's path at a second scale and seed.
// Simulator speed is measured by the benchmark module (benchmark/run.sh
// and its -compare), not here.

// perfCase runs one scenario and returns its outcome digest.
type perfCase struct {
	id  string
	run func(seed uint64) uint64
}

func perfGUPS(seed uint64) uint64 {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 17,
	})
	m.Warm()
	m.Run(10 * sim.Second)
	g.ResetScore()
	m.Run(5 * sim.Second)
	d := uint64(digestSeed)
	d = mix(d, math.Float64bits(g.Score()))
	d = mix(d, uint64(m.Faults()))
	d = mix(d, uint64(m.Migrator.Stats().Pages))
	d = mix(d, math.Float64bits(m.Migrator.Stats().Bytes))
	d = mix(d, math.Float64bits(m.TotalOps("gups")))
	return d
}

func perfKVS(seed uint64) uint64 {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	d := kvs.NewDriver(m, kvs.DriverConfig{
		WorkingSet: 300 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 17,
	})
	m.Warm()
	m.Run(10 * sim.Second)
	var sink countingWriter
	tel.WriteCSV(&sink)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(d.Mops()))
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	dg = mix(dg, uint64(sink.n))
	return dg
}

func perfGAP(seed uint64) uint64 {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	d := gap.NewDriver(m, gap.DriverConfig{
		Scale: 28, Iterations: 3, EdgeVisitScale: 0.05, Seed: 17,
	})
	m.Warm()
	m.RunUntilDone(20000 * sim.Second)
	times := d.IterationTimes()
	dg := uint64(digestSeed)
	for _, t := range times {
		dg = mix(dg, uint64(t))
	}
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	return dg
}

// perfTBScale runs the quick diurnal schedule for several simulated
// cycles, one m.Run per phase. The dense variant is the fixed-quantum
// baseline with all page metadata materialized up front; the adaptive
// variant is the event-driven loop over lazily materialized metadata.
// Their digests must match (same simulated outcome).
func perfTBScale(adaptive bool) func(seed uint64) uint64 {
	return func(seed uint64) uint64 {
		mc := machine.DefaultConfig()
		mc.Seed = seed
		mc.AdaptiveQuantum = adaptive
		m := machine.New(mc, newHeMem())
		cfg, _ := tbscaleConfig(Opts{})
		d := diurnal.New(m, cfg)
		if !adaptive {
			d.Region().MaterializeAll()
		}
		const cycles = 20
		for c := 0; c < cycles; c++ {
			for _, ph := range cfg.Phases {
				m.Run(ph.Duration)
			}
		}
		dg := uint64(digestSeed)
		dg = mix(dg, math.Float64bits(d.ActiveOps()))
		dg = mix(dg, uint64(m.Faults()))
		dg = mix(dg, uint64(m.Migrator.Stats().Pages))
		return dg
	}
}

// perfFleet runs one fleet machine — churning QoS tenants through
// admission, the weighted-fair selectors, drain-on-departure, and the
// per-quantum auditor.
func perfFleet(seed uint64) uint64 {
	o := Opts{}
	classes, _ := fleetClasses(o)
	const span = 8 * sim.Second
	r := fleetMachine(o, CellInfo{Exp: "perf-fleet", Seed: seed}, classes, 12, span)
	dg := uint64(digestSeed)
	for cl := 0; cl < machine.NumQoSClasses; cl++ {
		dg = mix(dg, r.hist[cl].Count())
		dg = mix(dg, math.Float64bits(r.hist[cl].Quantile(0.99)))
		dg = mix(dg, uint64(r.dramBytes[cl]))
		dg = mix(dg, uint64(r.mig[cl]))
	}
	dg = mix(dg, uint64(r.stats.Admitted))
	dg = mix(dg, uint64(r.stats.Queued))
	dg = mix(dg, uint64(r.stats.Departed))
	return dg
}

// perfTrackersIdlepage runs the trackers experiment's GUPS idlepage+hemem
// cell shape over a shorter span. A page-table pass completes every
// quantum, so the outcome pins the idlepage tracker's scan pass.
func perfTrackersIdlepage(seed uint64) uint64 {
	mc := machine.DefaultConfig()
	mc.Seed = seed
	mc.Tiers = machine.ClassicTiers(6*sim.GB, 0, 0)
	h := core.New(core.Config{Tracker: "idlepage", Policy: "hemem"})
	m := machine.New(mc, h)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 8 * sim.GB, Seed: 17,
	})
	m.Warm()
	m.Run(sim.Second)
	g.ResetScore()
	m.Run(500 * sim.Millisecond)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(g.Score()))
	for _, b := range []byte(fmt.Sprintf("%+v", h.Stats())) {
		dg = mix(dg, uint64(b))
	}
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	return dg
}

// perfKVSMemMode runs FlexKVS on Memory Mode in tab3's latency-cell
// shape over shorter spans: a closed-loop phase scored in Mops, then a
// phase at 30% offered load whose latency quantiles come from the cost
// branches. It pins Memory Mode's traffic observer, closed-form cache
// model and cost branches, which the PEBS-based cases never reach.
func perfKVSMemMode(seed uint64) uint64 {
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, newMM())
	d := kvs.NewDriver(m, kvs.DriverConfig{
		WorkingSet: 700 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9,
		NetBase: kvs.NetBaseTAS, Seed: 17,
	})
	m.Warm()
	m.Run(5 * sim.Second)
	d.ResetScore()
	m.Run(10 * sim.Second)
	mops := d.Mops()
	d.SetTargetRate(0.3 * 8 / (10 * 1000))
	d.ResetScore()
	m.Run(10 * sim.Second)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(mops))
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		dg = mix(dg, math.Float64bits(d.Latency().Quantile(q)))
	}
	return dg
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

var perfCases = []perfCase{
	{"gups", perfGUPS},
	{"kvs", perfKVS},
	{"gap-bc", perfGAP},
	{"tbscale-dense", perfTBScale(false)},
	{"tbscale-adaptive", perfTBScale(true)},
	{"fleet", perfFleet},
	{"trackers-idlepage", perfTrackersIdlepage},
	{"kvs-memmode", perfKVSMemMode},
}

// perfDigests pins each perf case's outcome at seed 17. A change that
// moves any simulated outcome fails here; one that means to must say why
// and update the value. tbscale-dense and tbscale-adaptive share a digest
// because the two stepping loops must agree bit for bit.
var perfDigests = map[string]string{
	"gups":              "70a6e8756f4fb535",
	"kvs":               "44d49d6c2a71e4e5",
	"gap-bc":            "dd589f19bfaf2635",
	"tbscale-dense":     "339abc7a5ddc3c34",
	"tbscale-adaptive":  "339abc7a5ddc3c34",
	"fleet":             "dd090cf83363ceab",
	"trackers-idlepage": "80639f563669e48e",
	"kvs-memmode":       "71dc70af69e7a976",
}

func TestPerfCaseDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated runs")
	}
	if len(perfCases) != len(perfDigests) {
		t.Fatalf("%d perf cases but %d pinned digests", len(perfCases), len(perfDigests))
	}
	for _, c := range perfCases {
		t.Run(c.id, func(t *testing.T) {
			want, ok := perfDigests[c.id]
			if !ok {
				t.Fatalf("no pinned digest for perf case %q", c.id)
			}
			if got := fmt.Sprintf("%016x", c.run(17)); got != want {
				t.Fatalf("%s: digest %s, pinned %s", c.id, got, want)
			}
		})
	}
}
