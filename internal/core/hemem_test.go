package core_test

import (
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

func newHeMemMachine(cfg core.Config) (*machine.Machine, *core.HeMem) {
	h := core.New(cfg)
	m := machine.New(machine.DefaultConfig(), h)
	return m, h
}

// Allocation policy: DRAM while free, NVM once full (§3.3).
func TestAllocationPrefersDRAM(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	r := m.AS.Map("big", 256*sim.GB)
	m.Warm()
	if got := r.Bytes(vm.TierDRAM); got != m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("DRAM bytes = %dGB, want all %dGB", got/sim.GB, m.CapacityOf(vm.TierDRAM)/sim.GB)
	}
	if got := r.Bytes(vm.TierNVM); got != 256*sim.GB-m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("NVM bytes = %dGB", got/sim.GB)
	}
	if h.DRAMUsed() != m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("accounting: DRAMUsed = %d", h.DRAMUsed())
	}
}

// Small allocations are forwarded to the kernel and stay in DRAM,
// untracked (§3.3).
func TestSmallAllocationsStayInDRAM(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	small := m.AS.Map("stack", 64*sim.MB)
	big := m.AS.Map("heap", 2*sim.GB)
	m.Warm()
	if small.Frac(vm.TierDRAM) != 1 {
		t.Fatal("small region not in DRAM")
	}
	// Small pages are unmanaged: no hot/cold tracking entries for them.
	if h.HotBytes(vm.TierDRAM)+h.ColdBytes(vm.TierDRAM) != big.Bytes(vm.TierDRAM) {
		t.Fatalf("tracked DRAM bytes include unmanaged pages")
	}
}

// The free-DRAM watermark forces eviction so new allocations land in DRAM
// (§3.3: "HeMem keeps a set amount of DRAM free — 1 GB").
func TestFreeWatermarkMaintained(t *testing.T) {
	cfg := core.DefaultConfig()
	m, h := newHeMemMachine(cfg)
	m.AS.Map("fill", 192*sim.GB) // fills DRAM exactly
	m.Warm()
	m.Run(2 * sim.Second) // let policy run
	// DRAM is absent from cfg.FreeTargets, so it keeps the default 1 GB.
	const watermark = 1 * sim.GB
	free := m.CapacityOf(vm.TierDRAM) - h.DRAMUsed()
	if free < watermark {
		t.Fatalf("free DRAM = %d MB, watermark is %d MB", free/sim.MB, watermark/sim.MB)
	}
	// A new small allocation lands in DRAM.
	late := m.AS.Map("late", 256*sim.MB)
	m.Warm()
	if late.Frac(vm.TierDRAM) != 1 {
		t.Fatal("post-watermark allocation did not get DRAM")
	}
}

// End-to-end: HeMem identifies a 16 GB hot set inside a 512 GB working set
// via PEBS sampling and migrates it to DRAM; throughput approaches the
// oracle placement (Figure 8: PEBS+Migrate within 5.9% of Opt — we allow
// a looser band).
func TestHotSetIdentificationAndMigration(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 42,
	})
	m.Warm()
	m.Run(120 * sim.Second)

	hotInDRAM := g.HotPages().Frac(vm.TierDRAM)
	if hotInDRAM < 0.85 {
		t.Errorf("hot set DRAM fraction = %.2f after 120s, want ≥0.85", hotInDRAM)
	}
	if h.Stats().Promotions == 0 || h.Stats().Samples == 0 {
		t.Fatalf("no activity: %+v", h.Stats())
	}
	// Physical DRAM occupancy never exceeds capacity.
	var dramBytes int64
	for _, r := range m.AS.Regions {
		dramBytes += r.Bytes(vm.TierDRAM)
	}
	if dramBytes > m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("DRAM over-committed: %d > %d", dramBytes, m.CapacityOf(vm.TierDRAM))
	}
}

// When the hot set exceeds DRAM, HeMem stops migrating rather than
// thrashing (§3.3).
func TestNoThrashWhenHotExceedsDRAM(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB, Seed: 1,
	})
	m.Warm()
	m.Run(30 * sim.Second)
	early := h.Stats().Promotions + h.Stats().Demotions
	m.Run(30 * sim.Second)
	late := h.Stats().Promotions + h.Stats().Demotions
	// Steady state: migration activity tails off instead of churning at
	// the full 10 GB/s budget (which would be ~150k pages per 30 s).
	if delta := late - early; delta > 40_000 {
		t.Errorf("still migrating heavily in steady state: %d pages in 30s", delta)
	}
}

// Write-heavy pages are promoted ahead of read-heavy ones (§3.3).
func TestWritePriorityOrdering(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: 5,
	})
	m.Warm()
	m.Run(90 * sim.Second)
	wr := g.WriteOnlyPages().Frac(vm.TierDRAM)
	rd := g.HotPages().Frac(vm.TierDRAM)
	if wr <= rd {
		t.Errorf("write-only DRAM frac %.2f not above read-hot %.2f", wr, rd)
	}
	if wr < 0.5 {
		t.Errorf("write-only set mostly outside DRAM: %.2f", wr)
	}
	_ = h
}

// The write-priority ablation: disabling the front-of-list priority cannot
// place *more* write-only data in DRAM than enabling it (the 4-vs-8
// threshold asymmetry remains either way, so some edge persists).
func TestWritePriorityAblation(t *testing.T) {
	run := func(priority bool) float64 {
		cfg := core.DefaultConfig()
		cfg.NoWritePriority = !priority
		m, _ := newHeMemMachine(cfg)
		g := gups.New(m, gups.Config{
			Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
			WriteOnlyHot: 128 * sim.GB, Seed: 5,
		})
		m.Warm()
		m.Run(90 * sim.Second)
		return g.WriteOnlyPages().Frac(vm.TierDRAM)
	}
	on := run(true)
	off := run(false)
	if off > on+0.05 {
		t.Errorf("disabling write priority increased write-only DRAM frac: %.2f → %.2f", on, off)
	}
}

// Migration disabled (Figure 8's "PEBS" bar): sampling runs, tiers never
// change.
func TestMigrationDisabled(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NoMigration = true
	m, h := newHeMemMachine(cfg)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 2,
	})
	m.Warm()
	before := g.HotPages().Frac(vm.TierDRAM)
	m.Run(20 * sim.Second)
	if got := g.HotPages().Frac(vm.TierDRAM); got != before {
		t.Fatalf("tiers changed with migration disabled: %.3f → %.3f", before, got)
	}
	if h.Stats().Samples == 0 {
		t.Fatal("sampling did not run")
	}
	if h.Stats().Promotions != 0 {
		t.Fatal("promotions with migration disabled")
	}
}

// Cooling keeps the hot estimate fresh: after the hot set shifts, the old
// hot pages cool and the new ones take their place (Figures 9/12).
func TestDynamicHotSetAdaptation(t *testing.T) {
	m, _ := newHeMemMachine(core.DefaultConfig())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 11,
	})
	m.Warm()
	m.Run(120 * sim.Second)
	if f := g.HotPages().Frac(vm.TierDRAM); f < 0.8 {
		t.Fatalf("initial hot set not established: %.2f", f)
	}
	g.ShiftHotSet(4*sim.GB, 777)
	afterShift := g.HotPages().Frac(vm.TierDRAM)
	if afterShift > 0.9 {
		t.Fatalf("shift did not disturb placement: %.2f", afterShift)
	}
	m.Run(120 * sim.Second)
	recovered := g.HotPages().Frac(vm.TierDRAM)
	if recovered < 0.85 {
		t.Errorf("hot set not recovered after shift: %.2f → %.2f", afterShift, recovered)
	}
}

// Sampler period flows through config; drops appear at aggressive periods
// (Figure 10's left edge).
func TestAggressiveSamplePeriodDrops(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = 250
	m, h := newHeMemMachine(cfg)
	gups.New(m, gups.Config{Threads: 16, WorkingSet: 64 * sim.GB, Seed: 3})
	m.Warm()
	m.Run(10 * sim.Second)
	if h.Buffer().DropFraction() < 0.05 {
		t.Errorf("period 250 drop fraction = %.3f, want noticeable drops", h.Buffer().DropFraction())
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	h := core.New(core.Config{})
	if h.Config().HotReadThreshold != 8 || h.Config().CoolThreshold != 18 {
		t.Fatal("zero config did not default")
	}
}

// Regression: a partial Config used to be replaced wholesale by
// DefaultConfig whenever HotReadThreshold was left zero, silently
// discarding every field the caller did set. Unset fields must default
// individually instead.
func TestPartialConfigKeepsCallerFields(t *testing.T) {
	def := core.DefaultConfig()
	cfg := core.Config{
		SamplePeriod:   def.SamplePeriod * 2,
		PolicyInterval: 7 * sim.Millisecond,
		MigRateCap:     sim.GBps(3),
	}
	got := core.New(cfg).Config()
	if got.SamplePeriod != def.SamplePeriod*2 {
		t.Errorf("SamplePeriod = %v, want caller's %v", got.SamplePeriod, def.SamplePeriod*2)
	}
	if got.PolicyInterval != 7*sim.Millisecond {
		t.Errorf("PolicyInterval = %v, want caller's %v", got.PolicyInterval, 7*sim.Millisecond)
	}
	if got.MigRateCap != sim.GBps(3) {
		t.Errorf("MigRateCap = %v, want caller's %v", got.MigRateCap, sim.GBps(3))
	}
	// Fields the caller left zero still pick up paper defaults.
	if got.HotReadThreshold != def.HotReadThreshold {
		t.Errorf("HotReadThreshold = %v, want default %v", got.HotReadThreshold, def.HotReadThreshold)
	}
	if got.CoolThreshold != def.CoolThreshold {
		t.Errorf("CoolThreshold = %v, want default %v", got.CoolThreshold, def.CoolThreshold)
	}
	if len(got.FreeTargets) != 0 {
		t.Errorf("FreeTargets = %v, want default (empty)", got.FreeTargets)
	}
	// The ablation switches are inverted so that a partial config keeps
	// full paper behavior: migration, cooling, write priority, and DMA
	// all stay on.
	if got.NoMigration || got.NoCooling || got.NoWritePriority || got.NoDMA {
		t.Errorf("partial config disabled paper-default behavior: %+v", got)
	}
	// And an explicit ablation on a partial config survives defaulting.
	abl := core.New(core.Config{SamplePeriod: 2500, NoMigration: true}).Config()
	if !abl.NoMigration {
		t.Error("explicit NoMigration lost in defaulting")
	}
	if abl.SamplePeriod != 2500 || abl.HotReadThreshold != def.HotReadThreshold {
		t.Errorf("ablation config misdefaulted: %+v", abl)
	}
}

// The tracker/policy selection knobs ride the same field-by-field
// defaulting: a partial Config that sets only Tracker must not zero the
// cooling/threshold defaults, and each unset selection string defaults
// independently of the others.
func TestTrackerPolicyConfigDefaulting(t *testing.T) {
	def := core.DefaultConfig()
	if def.Tracker != "pebs" || def.Policy != "hemem" || def.HeatForecaster != "ema" {
		t.Fatalf("paper-default selections changed: %+v", def)
	}

	got := core.New(core.Config{Tracker: "damon"}).Config()
	if got.Tracker != "damon" {
		t.Errorf("Tracker = %q, want caller's damon", got.Tracker)
	}
	if got.Policy != def.Policy || got.HeatForecaster != def.HeatForecaster {
		t.Errorf("unset selections misdefaulted: policy=%q forecaster=%q", got.Policy, got.HeatForecaster)
	}
	if got.CoolThreshold != def.CoolThreshold || got.HotReadThreshold != def.HotReadThreshold ||
		got.HotWriteThreshold != def.HotWriteThreshold || got.PolicyInterval != def.PolicyInterval ||
		got.SamplePeriod != def.SamplePeriod || got.MigRateCap != def.MigRateCap ||
		len(got.FreeTargets) != 0 {
		t.Errorf("Config{Tracker: damon} zeroed unrelated defaults: %+v", got)
	}

	got = core.New(core.Config{Policy: "heat", HeatForecaster: "trend"}).Config()
	if got.Policy != "heat" || got.HeatForecaster != "trend" {
		t.Errorf("caller's policy/forecaster lost: %+v", got)
	}
	if got.Tracker != def.Tracker {
		t.Errorf("Tracker = %q, want default %q", got.Tracker, def.Tracker)
	}
	if got.CoolThreshold != def.CoolThreshold || got.HotReadThreshold != def.HotReadThreshold {
		t.Errorf("Config{Policy: heat} zeroed threshold defaults: %+v", got)
	}

	// And the selections compose with an unrelated caller field.
	got = core.New(core.Config{Tracker: "idlepage", MigRateCap: sim.GBps(3)}).Config()
	if got.Tracker != "idlepage" || got.MigRateCap != sim.GBps(3) || got.Policy != def.Policy {
		t.Errorf("mixed partial config misdefaulted: %+v", got)
	}
}

// Validate rejects unknown tracker/policy/forecaster names with an error
// listing what is registered; empty strings stay valid (New defaults
// them).
func TestValidateUnknownTrackerPolicy(t *testing.T) {
	if err := (core.Config{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	ok := core.Config{Tracker: "damon", Policy: "heat", HeatForecaster: "trend"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("registered names rejected: %v", err)
	}
	cases := []struct {
		cfg  core.Config
		want string
	}{
		{core.Config{Tracker: "nope"}, "unknown tracker"},
		{core.Config{Policy: "nope"}, "unknown policy"},
		{core.Config{HeatForecaster: "nope"}, "unknown heat forecaster"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%+v: Validate accepted unknown name", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "registered:") {
			t.Errorf("%+v: error %q should say %q and list registered names", tc.cfg, err, tc.want)
		}
	}
}

// Releasing a region must return its committed bytes: dramUsed/nvmUsed
// previously only ever grew, so a multi-tenant machine that unmapped a
// tenant leaked its footprint forever and later tenants were refused
// DRAM placement.
func TestReleaseReturnsAccounting(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	tenant := m.AS.Map("tenant", 256*sim.GB) // overflows 192 GB DRAM into NVM
	m.Warm()
	if h.DRAMUsed() != m.CapacityOf(vm.TierDRAM) || h.NVMUsed() != 256*sim.GB-m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("pre-release accounting: dram=%d nvm=%d", h.DRAMUsed(), h.NVMUsed())
	}
	m.Unmap(tenant)
	if h.DRAMUsed() != 0 || h.NVMUsed() != 0 {
		t.Fatalf("release leaked: dram=%d nvm=%d", h.DRAMUsed(), h.NVMUsed())
	}
	if h.HotBytes(vm.TierDRAM)+h.ColdBytes(vm.TierDRAM)+
		h.HotBytes(vm.TierNVM)+h.ColdBytes(vm.TierNVM) != 0 {
		t.Fatal("release left pages on FIFO lists")
	}
	// A successor tenant gets the freed DRAM back.
	next := m.AS.Map("next", 64*sim.GB)
	m.Warm()
	if next.Frac(vm.TierDRAM) != 1 {
		t.Fatalf("successor tenant DRAM frac = %v, want 1", next.Frac(vm.TierDRAM))
	}
	m.Unmap(next)
	if h.DRAMUsed() != 0 || h.NVMUsed() != 0 {
		t.Fatalf("second release leaked: dram=%d nvm=%d", h.DRAMUsed(), h.NVMUsed())
	}
}

// Release with traffic still running: in-flight migrations are cancelled
// and their enqueue-time commitments undone, so accounting lands exactly
// on the surviving region's footprint.
func TestReleaseCancelsInFlightMigrations(t *testing.T) {
	m, h := newHeMemMachine(core.DefaultConfig())
	victim := m.AS.Map("victim", 200*sim.GB)
	m.AS.Map("keeper", 64*sim.GB)
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 64 * sim.GB, HotSet: 8 * sim.GB, Seed: 11})
	_ = g
	m.Warm()
	m.Run(3 * sim.Second) // migrations in flight between tiers
	m.Unmap(victim)
	// Accounting must land on the surviving regions' footprint (keeper
	// plus the GUPS workload's own mapping). Pages still migrating carry
	// enqueue-time commitments that shift bytes between the two counters,
	// so each counter may diverge by up to the queue depth — but the sum
	// is exact, and any victim leak would break it.
	var wantDRAM, wantNVM int64
	for _, r := range m.AS.Regions {
		wantDRAM += r.Bytes(vm.TierDRAM)
		wantNVM += r.Bytes(vm.TierNVM)
	}
	if got, want := h.DRAMUsed()+h.NVMUsed(), wantDRAM+wantNVM; got != want {
		t.Fatalf("DRAM+NVM accounting = %d after release, want surviving %d", got, want)
	}
	slack := int64(m.Migrator.QueueLen()) * m.Cfg.PageSize
	if diff := h.DRAMUsed() - wantDRAM; diff < -slack || diff > slack {
		t.Fatalf("DRAMUsed = %d, want %d within %d queue slack", h.DRAMUsed(), wantDRAM, slack)
	}
	m.Run(2 * sim.Second) // machine keeps running after the teardown
}
