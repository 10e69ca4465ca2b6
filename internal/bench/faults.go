package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// soakFaults is the chaos soak configuration: every independent
// injector plus the chaos scheduler's compound episodes, CXL offline events, and
// correctable-error storms, aggressive enough that a 40-second run sees
// several of each.
func soakFaults() fault.Config {
	return fault.Config{
		MigrationAbortProb:   0.02,
		DMAChannelMTBF:       20 * sim.Second,
		DMADegradedMTBF:      5 * sim.Second,
		NVMUncorrectableMTBF: 2 * sim.Second,
		NVMThermalMTBF:       5 * sim.Second,
		PEBSStormMTBF:        5 * sim.Second,
		Chaos: fault.ChaosConfig{
			CompoundMTBF:        8 * sim.Second,
			TierOfflineMTBF:     10 * sim.Second,
			TierOfflineDuration: 4 * sim.Second,
			OfflineTiers:        fault.OfflineSet(vm.TierCXL),
			// CE strikes spread uniformly over the whole NVM page
			// population, so accumulating a per-page threshold in a
			// 40-second run needs a dense storm and a low bar.
			CEStormMTBF:       4 * sim.Second,
			CEStormDuration:   500 * sim.Millisecond,
			CEInterval:        200 * sim.Microsecond,
			CERetireThreshold: 2,
		},
	}
}

// soakRun drives one chaos soak: GUPS (16 threads, 32 GB working set,
// 6 GB hot set) on the chaos testbed under soakFaults, managed by HeMem
// with cfg, with telemetry sampled every 100 ms and the invariant
// auditor checking every quantum (a violation panics). It warms for
// warm simulated ns and returns the machine, the manager, the telemetry
// and the GUPS score over the measure ns that follow.
func soakRun(o Opts, cfg core.Config, warm, measure int64) (*machine.Machine, *core.HeMem, *machine.Telemetry, float64) {
	m, h := chaosMachine(o, cfg, soakFaults())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 6 * sim.GB, Seed: o.seed(),
	})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	m.Warm()
	m.Run(warm)
	g.ResetScore()
	m.Run(measure)
	return m, h, tel, g.Score()
}

// runFaults runs the chaos soak — every fault class the injector
// models, at once, on the chaos testbed — and reports the GUPS score,
// one row per class (its events and recovery counters), the evacuation
// MTTR and the replayable episode log, with the invariant auditor
// running every quantum. -full at the default seed is TestChaosSoak's
// run.
func runFaults(w io.Writer, o Opts) {
	warm := o.scale(3, 10) * sim.Second
	measure := o.scale(12, 40) * sim.Second
	m, _, _, score := soakRun(o, core.DefaultConfig(), warm, measure)

	fs := *m.FaultCounters()
	mttr := int64(0)
	if fs.TierEvacuations > 0 {
		mttr = fs.TierEvacNsTotal / fs.TierEvacuations
	}
	fmt.Fprintf(w, "GUPS over %ds after %ds warm-up: %.4f\n", measure/sim.Second, warm/sim.Second, score)
	tw := table(w)
	fmt.Fprintln(tw, "class\tevents\trecovery")
	for _, c := range []struct {
		name     string
		events   int64
		recovery string
	}{
		{"migration-abort", fs.MigrationAborts, fmt.Sprintf("%d retries, %d abandoned", fs.MigrationRetries, fs.MigrationsAbandoned)},
		{"dma-channel-loss", fs.DMAChannelFailures, fmt.Sprintf("%d software-copy fallbacks", fs.SoftwareCopyFallbacks)},
		{"dma-degraded", fs.DMADegradedEpisodes, "-"},
		{"nvm-uncorrectable", fs.NVMUncorrectable, fmt.Sprintf("%d frames retired", fs.PagesRetired-fs.PagesPredictivelyRetired)},
		{"nvm-thermal", fs.NVMThermalEpisodes, "-"},
		{"pebs-storm", fs.PEBSStorms, fmt.Sprintf("%d sample-period raises", fs.SamplePeriodRaises)},
		{"compound", fs.CompoundEpisodes, "-"},
		{"ce-storm", fs.CEStorms, fmt.Sprintf("%d correctable errors, %d frames predictively retired",
			fs.CorrectableErrors, fs.PagesPredictivelyRetired)},
		{"tier-offline", fs.TierOfflineEvents, fmt.Sprintf("%d back online, %d drained, %d pages moved off",
			fs.TierOnlineEvents, fs.TierEvacuations, fs.TierEvacuatedPages)},
	} {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", c.name, c.events, c.recovery)
	}
	tw.Flush()
	fmt.Fprintf(w, "emergency promotions of retired pages: %d; evacuation MTTR: %.3fs\n",
		fs.EmergencyPromotions, float64(mttr)/float64(sim.Second))
	fmt.Fprintln(w, "episodes:")
	fault.WriteEpisodes(w, m.Episodes())
	fmt.Fprintln(w, "auditor: every quantum, zero violations")
	fmt.Fprintf(w, "32 GB working set on 8 GB DRAM + 8 GB CXL + NVM under every fault class at once, seed %d\n", o.seed())
}
