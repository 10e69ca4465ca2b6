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
// 1 ms quanta so phases start on step boundaries.
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
}

// TestDiurnalAudited runs the schedule with the runtime invariant
// auditor recounting occupancy every step. DRAM is smaller than a burst
// window, so placement spills to NVM and the policy migrates during and
// after bursts, while most of the 16 GB region never materializes.
func TestDiurnalAudited(t *testing.T) {
	mc := machine.DefaultConfig()
	mc.Tiers = machine.ClassicTiers(2*sim.GB, 0, 0)
	mc.Audit = true
	m := machine.New(mc, core.New(core.DefaultConfig()))
	d := diurnal.New(m, testSchedule(16*sim.GB))
	m.Run(20 * sim.Second) // panics on any invariant violation
	if m.Migrator.Stats().Pages == 0 {
		t.Error("no migrations at all: the run lost its pressure")
	}
	if got, total := d.Region().TouchedPages(), d.Region().NumPages(); got >= total {
		t.Errorf("run touched %d of %d pages: the region is no longer sparse", got, total)
	}
}

// rejects fails unless cfg fails Validate with a message containing
// want, and New panics with that message without mapping anything.
func rejects(t *testing.T, cfg diurnal.Config, want string) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), core.New(core.DefaultConfig()))
	err := cfg.Validate(m.Cfg.PageSize)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate(%+v) = %v, want an error mentioning %q", cfg, err, want)
	}
	defer func() {
		if r := recover(); r != err.Error() {
			t.Fatalf("New panicked with %v, want %q", r, err)
		}
		if n := len(m.AS.Regions); n != 0 {
			t.Fatalf("refused New mapped %d regions", n)
		}
	}()
	diurnal.New(m, cfg)
}

func TestValidateRejectsBadWindow(t *testing.T) {
	for _, w := range [][2]float64{{0.5, 0.2}, {-0.1, 0.2}, {0.5, 1.5}, {math.NaN(), 0.2}, {0.1, math.NaN()}} {
		cfg := testSchedule(16 * sim.GB)
		cfg.Phases[1].WindowLo, cfg.Phases[1].WindowHi = w[0], w[1]
		rejects(t, cfg, "window")
	}
}

func TestValidateRejectsBadSchedule(t *testing.T) {
	cfg := testSchedule(16 * sim.GB)
	cfg.Phases = nil
	rejects(t, cfg, "schedule")
	cfg = testSchedule(16 * sim.GB)
	cfg.Phases[2].Duration = 0
	rejects(t, cfg, "Duration")
}

func TestValidateRejectsNegativeFields(t *testing.T) {
	cfg := testSchedule(16 * sim.GB)
	cfg.Threads = -4
	rejects(t, cfg, "Threads")
	rejects(t, testSchedule(0), "WorkingSet")
}

func TestValidateRejectsPageIDOverflow(t *testing.T) {
	rejects(t, testSchedule((math.MaxInt32+1)*2*sim.MB), "PageID")
}

// Two burst windows may cover the same pages or disjoint ones, but not
// overlap otherwise: a page is in at most one set. Windows disjoint as
// fractions still overlap when both round to a shared page.
func TestValidateRejectsOverlappingWindows(t *testing.T) {
	cfg := testSchedule(16 * sim.GB)
	cfg.Phases[3].WindowLo = 0.2
	rejects(t, cfg, "overlap")
	cfg = testSchedule(16 * sim.GB) // 8,192 pages
	cfg.Phases[1].WindowLo, cfg.Phases[1].WindowHi = 0.5, 0.5+1e-9
	cfg.Phases[3].WindowLo = 0.5 + 2e-9
	rejects(t, cfg, "overlap")
}

// A region holds at most vm.MaxRegionSets sets, so a schedule has at
// most that many distinct burst windows.
func TestValidateRejectsTooManyWindows(t *testing.T) {
	cfg := diurnal.Config{WorkingSet: 16 * sim.GB}
	for i := 0; i <= vm.MaxRegionSets; i++ {
		lo := float64(i) / (vm.MaxRegionSets + 1)
		cfg.Phases = append(cfg.Phases, diurnal.Phase{Duration: sim.Millisecond, WindowLo: lo, WindowHi: lo + 0.5/(vm.MaxRegionSets+1)})
	}
	rejects(t, cfg, "distinct burst windows")
	cfg.Phases = cfg.Phases[:vm.MaxRegionSets]
	if err := cfg.Validate(2 * sim.MB); err != nil {
		t.Fatalf("%d distinct windows rejected: %v", vm.MaxRegionSets, err)
	}
}

// Phases over the same window share one set, faulted in once and named
// after the first of them.
func TestRepeatedWindowSharesOneSet(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), core.New(core.DefaultConfig()))
	cfg := testSchedule(16 * sim.GB)
	cfg.Phases[3].WindowLo, cfg.Phases[3].WindowHi = cfg.Phases[1].WindowLo, cfg.Phases[1].WindowHi
	d := diurnal.New(m, cfg)
	m.Run(2*sim.Second + sim.Millisecond) // into phase 1
	first := d.Components()[0].Set
	m.Run(4 * sim.Second) // into phase 3
	again := d.Components()[0].Set
	if again != first || first.Name != "diurnal-w1" {
		t.Fatalf("phase 3 runs over set %q, phase 1 over %q, want one set named diurnal-w1", again.Name, first.Name)
	}
	if quarter := d.Region().NumPages() / 4; d.FaultedPages() != quarter || first.Len() != quarter {
		t.Fatalf("faulted %d pages into a set of %d, want one window of %d", d.FaultedPages(), first.Len(), quarter)
	}
}

// Zero Threads means its default; an idle-only schedule, a
// window repeated by a later phase and a window spanning the whole
// region are valid.
func TestValidateAcceptsDefaultsAndBounds(t *testing.T) {
	cfg := testSchedule(16 * sim.GB)
	cfg.Threads = 0
	cfg.Phases = append(cfg.Phases, cfg.Phases[1])
	whole := diurnal.Config{WorkingSet: 16 * sim.GB, Phases: []diurnal.Phase{{Duration: sim.Second}, {Duration: sim.Second, WindowLo: 0, WindowHi: 1}}}
	for _, c := range []diurnal.Config{cfg, whole, {WorkingSet: 1, Phases: []diurnal.Phase{{Duration: 1}}}} {
		if err := c.Validate(2 * sim.MB); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
}
