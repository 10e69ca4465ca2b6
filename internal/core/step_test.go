package core

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// busyOutcome is everything a busy run can differ in.
type busyOutcome struct {
	ops      float64
	faults   int64
	mig      machine.MigStats
	stats    Stats
	nextDraw uint64
}

// busyRun is HeMem on PEBS-sampled GUPS whose hot set overflows DRAM,
// with fault injection on, so the machine is never quiescent: traffic
// flows every step and the injector alone keeps every step at the base
// quantum. With fixed set it runs on the fixed-cadence reference loop,
// otherwise Run on the adaptive loop.
func busyRun(seed uint64, fixed bool) busyOutcome {
	h := New(DefaultConfig())
	mc := machine.DefaultConfig()
	mc.Seed = seed
	mc.AdaptiveQuantum = !fixed
	mc.Tiers = machine.ClassicTiers(8*sim.GB, 0, 0)
	mc.Faults = fault.Config{
		MigrationAbortProb:   0.05,
		NVMUncorrectableMTBF: 500 * sim.Millisecond,
		PEBSStormMTBF:        sim.Second,
	}
	m := machine.New(mc, h)
	gups.New(m, gups.Config{Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 12 * sim.GB, Seed: seed})
	m.Warm()
	// 1.5 quanta past a whole second, so the last step is a capped one.
	span := 5*sim.Second + 3*sim.Millisecond/2
	if fixed {
		q := machine.Quantum
		for now, end := m.Clock.Now(), m.Clock.Now()+span; now < end; now = m.Clock.Now() {
			m.Step(min(q, end-now))
		}
	} else {
		m.Run(span)
	}
	return busyOutcome{
		ops:      m.TotalOps("gups"),
		faults:   m.Faults(),
		mig:      m.Migrator.Stats(),
		stats:    h.Stats(),
		nextDraw: m.Rng.Uint64(),
	}
}

// TestBusyRunMatchesFixedCadence pins the adaptive loop to the
// fixed-cadence loop on a run that never stretches a step: ops, faults,
// migrations, HeMem's counters and the machine RNG's position must all
// agree.
func TestBusyRunMatchesFixedCadence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ref, got := busyRun(seed, true), busyRun(seed, false)
		if math.Float64bits(ref.ops) != math.Float64bits(got.ops) {
			t.Errorf("seed %d: ops: fixed %v, adaptive %v", seed, ref.ops, got.ops)
		}
		if ref.faults != got.faults {
			t.Errorf("seed %d: faults: fixed %d, adaptive %d", seed, ref.faults, got.faults)
		}
		if ref.mig != got.mig {
			t.Errorf("seed %d: migrations: fixed %+v, adaptive %+v", seed, ref.mig, got.mig)
		}
		if ref.stats != got.stats {
			t.Errorf("seed %d: HeMem stats:\nfixed    %+v\nadaptive %+v", seed, ref.stats, got.stats)
		}
		if ref.nextDraw != got.nextDraw {
			t.Errorf("seed %d: RNG positions differ: next draw %x vs %x", seed, ref.nextDraw, got.nextDraw)
		}
		if ref.mig.Pages == 0 || ref.stats.Samples == 0 {
			t.Errorf("seed %d: run lost its pressure: %+v, %+v", seed, ref.mig, ref.stats)
		}
	}
}
