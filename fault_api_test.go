// Acceptance tests for the fault-injection layer through the public
// API: determinism under a fixed seed, graceful degradation under
// combined faults, and adaptive sampling under PEBS storms.
package hemem_test

import (
	"strings"
	"testing"

	hemem "github.com/tieredmem/hemem"
)

// faultyGUPSRun executes a short GUPS run with fault injection enabled
// and returns the telemetry CSV plus the machine for further asserts.
func faultyGUPSRun(t *testing.T, seed uint64, faults hemem.FaultConfig) (string, *hemem.Machine) {
	t.Helper()
	cfg := hemem.DefaultMachineConfig()
	cfg.Seed = seed
	cfg.Tiers = hemem.ClassicTiers(16*hemem.GB, 0, 0) // force tiering so migrations run
	cfg.Faults = faults
	m := hemem.NewMachine(cfg, hemem.NewHeMem(hemem.DefaultHeMemConfig()))
	hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 64 * hemem.GB, HotSet: 8 * hemem.GB, Seed: 1,
	})
	tel := m.EnableTelemetry(10 * hemem.Millisecond)
	m.Warm()
	m.Run(2 * hemem.Second)
	var sb strings.Builder
	if err := tel.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return sb.String(), m
}

// The same seed and fault configuration must reproduce the run
// bit-identically; a different seed must not.
func TestFaultInjectionDeterminism(t *testing.T) {
	faults := hemem.FaultConfig{
		MigrationAbortProb:   0.2,
		DMADegradedMTBF:      50 * hemem.Millisecond,
		NVMThermalMTBF:       80 * hemem.Millisecond,
		PEBSStormMTBF:        60 * hemem.Millisecond,
		NVMUncorrectableMTBF: 200 * hemem.Millisecond,
	}
	a, ma := faultyGUPSRun(t, 7, faults)
	b, _ := faultyGUPSRun(t, 7, faults)
	if a != b {
		t.Fatal("same seed and fault config produced different telemetry")
	}
	if fs := ma.FaultCounters(); fs.Injected() == 0 {
		t.Fatal("fault config injected nothing; determinism test is vacuous")
	}
	c, _ := faultyGUPSRun(t, 8, faults)
	if a == c {
		t.Fatal("different seeds produced identical telemetry under faults")
	}
}

// With injection disabled the machine must not emit fault telemetry
// series at all — the layer is a strict no-op.
func TestNoFaultSeriesWhenDisabled(t *testing.T) {
	_, m := faultyGUPSRun(t, 1, hemem.FaultConfig{})
	if m.Injector.Enabled() {
		t.Fatal("injector enabled with zero fault config")
	}
	if s := m.Telemetry().Series("fault.injected.total"); s != nil {
		t.Fatal("fault series recorded with injection disabled")
	}
	if fs := *m.FaultCounters(); fs != (hemem.FaultStats{}) {
		t.Fatalf("fault counters moved with injection disabled: %+v", fs)
	}
}

// GUPS under migration aborts, DMA channel loss, and NVM errors must
// complete without panics, make progress, recover via retries and the
// software-copy fallback, and lose no pages.
func TestGUPSWithFaultsDegradesGracefully(t *testing.T) {
	cfg := hemem.DefaultMachineConfig()
	cfg.Tiers = hemem.ClassicTiers(16*hemem.GB, 0, 0) // force tiering so migrations run
	cfg.Faults = hemem.FaultConfig{
		MigrationAbortProb:   0.3,
		DMAChannelMTBF:       10 * hemem.Millisecond,
		NVMUncorrectableMTBF: 100 * hemem.Millisecond,
	}
	m := hemem.NewMachine(cfg, hemem.NewHeMem(hemem.DefaultHeMemConfig()))
	g := hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 64 * hemem.GB, HotSet: 8 * hemem.GB, Seed: 1,
	})
	m.Warm()
	m.Run(5 * hemem.Second)

	if g.Score() <= 0 {
		t.Fatal("no GUPS progress under faults")
	}
	fs := *m.FaultCounters()
	if fs.Injected() == 0 || fs.Recoveries() == 0 {
		t.Fatalf("counters empty: injected=%d recoveries=%d", fs.Injected(), fs.Recoveries())
	}
	if fs.MigrationAborts == 0 || fs.MigrationRetries == 0 {
		t.Fatalf("no transactional migration activity: aborts=%d retries=%d",
			fs.MigrationAborts, fs.MigrationRetries)
	}
	// A 10 ms channel MTBF kills all 8 channels early in a 5 s run.
	if fs.DMAChannelFailures < 8 || fs.SoftwareCopyFallbacks != 1 {
		t.Fatalf("DMA degradation incomplete: failures=%d fallbacks=%d",
			fs.DMAChannelFailures, fs.SoftwareCopyFallbacks)
	}
	if fs.NVMUncorrectable == 0 || fs.PagesRetired != fs.NVMUncorrectable {
		t.Fatalf("NVM UE accounting: errors=%d retired=%d", fs.NVMUncorrectable, fs.PagesRetired)
	}
	// No page is ever lost: every mapped page still occupies exactly one
	// tier, even after aborted and abandoned migrations.
	for _, r := range m.AS.Regions {
		got := r.Count(hemem.TierDRAM) + r.Count(hemem.TierNVM) + r.Count(hemem.TierDisk)
		if got != r.NumPages() {
			t.Fatalf("region %s lost pages: %d of %d accounted", r.Name, got, r.NumPages())
		}
	}
}

// Sustained PEBS overrun storms make the manager raise its sample
// period when adaptive sampling is on.
func TestAdaptiveSamplingUnderPEBSStorms(t *testing.T) {
	hcfg := hemem.DefaultHeMemConfig()
	hcfg.AdaptiveSampling = true
	mgr := hemem.NewHeMem(hcfg)
	cfg := hemem.DefaultMachineConfig()
	cfg.Faults = hemem.FaultConfig{
		PEBSStormMTBF:     20 * hemem.Millisecond,
		PEBSStormDuration: 500 * hemem.Millisecond,
		PEBSStormFactor:   64,
	}
	m := hemem.NewMachine(cfg, mgr)
	hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 64 * hemem.GB, HotSet: 8 * hemem.GB, Seed: 1,
	})
	m.Warm()
	m.Run(3 * hemem.Second)

	if got := mgr.Stats().PeriodRaises; got == 0 {
		t.Fatal("adaptive sampling never raised the period under storms")
	}
	if got, base := mgr.Sampler().Period, mgr.Config().SamplePeriod; got <= base {
		t.Fatalf("sample period %v not raised above base %v", got, base)
	}
	if m.FaultCounters().SamplePeriodRaises == 0 {
		t.Fatal("machine counter missed period raises")
	}
}
