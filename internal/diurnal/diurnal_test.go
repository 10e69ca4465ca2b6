package diurnal_test

import (
	"math"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/diurnal"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// testSchedule is a small two-burst day: idle spans dominate, the two
// windows overlap nothing, and every duration is a whole number of
// 1 ms quanta so fixed and adaptive runs share step boundaries.
func testSchedule(ws int64) diurnal.Config {
	return diurnal.Config{
		WorkingSet: ws,
		Threads:    8,
		Phases: []diurnal.Phase{
			{Duration: 2 * sim.Second},
			{Duration: 1 * sim.Second, WindowLo: 0.00, WindowHi: 0.25},
			{Duration: 3 * sim.Second},
			{Duration: 1 * sim.Second, WindowLo: 0.50, WindowHi: 0.75},
			{Duration: 3 * sim.Second},
		},
	}
}

func TestScheduleRollsAndFaultsLazily(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), core.New(core.DefaultConfig()))
	d := diurnal.New(m, testSchedule(16*sim.GB))

	if got := d.Region().TouchedPages(); got != 0 {
		t.Fatalf("pages touched before any burst: %d", got)
	}
	if d.ActiveOps() != 0 {
		t.Fatalf("ops before run: %v", d.ActiveOps())
	}
	// First idle phase: still nothing materialized.
	m.Run(2 * sim.Second)
	if got := d.Region().TouchedPages(); got != 0 {
		t.Fatalf("idle phase materialized %d pages", got)
	}
	// First burst: exactly the window's quarter of the region faults in.
	m.Run(1 * sim.Second)
	quarter := d.Region().NumPages() / 4
	if got := d.FaultedPages(); got != quarter {
		t.Fatalf("first burst faulted %d pages, want %d", got, quarter)
	}
	if d.ActiveOps() <= 0 {
		t.Fatalf("burst produced no ops")
	}
	// Run through the rest of the day plus a full repeat: the second
	// burst adds its quarter, the repeat adds nothing new.
	ops := d.ActiveOps()
	m.Run(7 * sim.Second)
	if got := d.FaultedPages(); got != 2*quarter {
		t.Fatalf("after both bursts faulted %d pages, want %d", got, 2*quarter)
	}
	m.Run(10 * sim.Second)
	if got := d.FaultedPages(); got != 2*quarter {
		t.Fatalf("repeat day faulted new pages: %d, want %d", d.FaultedPages(), 2*quarter)
	}
	if d.ActiveOps() <= ops {
		t.Fatalf("repeat day produced no ops")
	}
	if at, ok := d.NextPhaseChange(m.Clock.Now()); !ok || at <= m.Clock.Now() {
		t.Fatalf("NextPhaseChange = %d, %v at now=%d", at, ok, m.Clock.Now())
	}
}

// run executes the schedule on one machine configuration and returns the
// machine and workload for comparison.
func runOnce(t *testing.T, adaptive bool, seed uint64, span int64) (*machine.Machine, *diurnal.Workload, string) {
	t.Helper()
	mc := machine.DefaultConfig()
	// Small DRAM so the 4 GB burst windows overflow it: placement spills
	// to NVM and the policy migrates during and after bursts, exercising
	// the non-quiescent paths of the adaptive loop.
	mc.Tiers = machine.ClassicTiers(2*sim.GB, 0, 0)
	mc.Seed = seed
	mc.AdaptiveQuantum = adaptive
	m := machine.New(mc, core.New(core.DefaultConfig()))
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	d := diurnal.New(m, testSchedule(16*sim.GB))
	m.Run(span)
	var csv strings.Builder
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return m, d, csv.String()
}

// TestAdaptiveMatchesFixed is the exactness property: with a phased
// workload whose idle spans move no bytes, the adaptive event-driven run
// must reproduce the fixed 1 ms schedule bit for bit — scores, faults,
// per-edge migration counters, and the telemetry CSV.
func TestAdaptiveMatchesFixed(t *testing.T) {
	tiers := []vm.Tier{vm.TierDRAM, vm.TierNVM, vm.TierDisk}
	for _, seed := range []uint64{1, 17, 99} {
		span := int64(20 * sim.Second) // two full days of the 10 s schedule
		fm, fd, fcsv := runOnce(t, false, seed, span)
		am, ad, acsv := runOnce(t, true, seed, span)

		if f, a := fd.ActiveOps(), ad.ActiveOps(); math.Float64bits(f) != math.Float64bits(a) {
			t.Errorf("seed %d: ops diverged: fixed %v adaptive %v", seed, f, a)
		}
		if f, a := fm.Faults(), am.Faults(); f != a {
			t.Errorf("seed %d: faults diverged: fixed %d adaptive %d", seed, f, a)
		}
		fs, as := fm.Migrator.Stats(), am.Migrator.Stats()
		if fs.Pages != as.Pages || math.Float64bits(fs.Bytes) != math.Float64bits(as.Bytes) {
			t.Errorf("seed %d: migration stats diverged: fixed %+v adaptive %+v", seed, fs, as)
		}
		if fs.Pages == 0 {
			t.Errorf("seed %d: no migrations at all — the test lost its pressure", seed)
		}
		for _, src := range tiers {
			for _, dst := range tiers {
				if f, a := fm.Migrator.Moved(src, dst), am.Migrator.Moved(src, dst); f != a {
					t.Errorf("seed %d: edge %v->%v diverged: fixed %d adaptive %d", seed, src, dst, f, a)
				}
			}
		}
		if f, a := fm.AS.TouchedPages(), am.AS.TouchedPages(); f != a {
			t.Errorf("seed %d: touched pages diverged: fixed %d adaptive %d", seed, f, a)
		}
		if fcsv != acsv {
			t.Errorf("seed %d: telemetry CSV diverged (%d vs %d bytes)", seed, len(fcsv), len(acsv))
		}
	}
}

// TestAdaptiveAudited runs the adaptive loop with the runtime invariant
// auditor recounting occupancy every step: the variable-dt path must
// keep the same conservation invariants as the fixed path, including
// over sparse regions where most pages never materialize.
func TestAdaptiveAudited(t *testing.T) {
	mc := machine.DefaultConfig()
	mc.Tiers = machine.ClassicTiers(2*sim.GB, 0, 0)
	mc.AdaptiveQuantum = true
	mc.Audit = true
	m := machine.New(mc, core.New(core.DefaultConfig()))
	diurnal.New(m, testSchedule(16*sim.GB))
	m.Run(20 * sim.Second) // panics on any invariant violation
}
