package machine_test

import (
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// runUniform runs uniform GUPS for a simulated duration on the given
// manager and returns the score in GUPS.
func runUniform(t *testing.T, mgr machine.Manager, ws int64, threads int, dur int64) float64 {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, gups.Config{Threads: threads, WorkingSet: ws})
	m.Warm()
	m.Run(dur)
	return g.Score()
}

// A 16 GB uniform working set: DRAM is roughly an order of magnitude
// faster than NVM for 8-byte random RMW (media granularity + write
// bandwidth), per §5.1's GUPS-in-NVM observations.
func TestDRAMvsNVMUniformGUPS(t *testing.T) {
	dram := runUniform(t, xmem.DRAMFirst(), 16*sim.GB, 16, 2*sim.Second)
	nvm := runUniform(t, xmem.NVMOnly(), 16*sim.GB, 16, 2*sim.Second)
	if dram <= 0 || nvm <= 0 {
		t.Fatalf("scores must be positive: dram=%v nvm=%v", dram, nvm)
	}
	ratio := dram / nvm
	if ratio < 5 || ratio > 20 {
		t.Errorf("DRAM/NVM GUPS ratio = %.1f, want ~10", ratio)
	}
	// Absolute sanity: 16 threads at ~165 ns/op ≈ 0.1 GUPS.
	if dram < 0.06 || dram > 0.15 {
		t.Errorf("DRAM GUPS = %.3f, want ~0.1", dram)
	}
}

// GUPS throughput grows with thread count until cores or bandwidth bind.
func TestThreadScaling(t *testing.T) {
	g4 := runUniform(t, xmem.DRAMFirst(), 16*sim.GB, 4, sim.Second)
	g16 := runUniform(t, xmem.DRAMFirst(), 16*sim.GB, 16, sim.Second)
	if g16 < g4*3 {
		t.Errorf("16 threads (%.3f) should be ~4× 4 threads (%.3f)", g16, g4)
	}
	// Beyond the 24-core socket, throughput stops growing.
	g24 := runUniform(t, xmem.DRAMFirst(), 16*sim.GB, 24, sim.Second)
	g48 := runUniform(t, xmem.DRAMFirst(), 16*sim.GB, 48, sim.Second)
	if g48 > g24*1.05 {
		t.Errorf("48 threads (%.3f) should not beat 24 (%.3f) on 24 cores", g48, g24)
	}
}

// NVM is write-bandwidth bound for RMW updates: wear counters should show
// media-granularity amplification (256 B per 8 B write).
func TestNVMWearAmplification(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 16 * sim.GB})
	m.Warm()
	m.NVM.ResetWear()
	m.Run(sim.Second)
	w := m.NVM.Wear()
	perOp := w.WriteBytes / g.Updates()
	if perOp < 250 || perOp > 260 {
		t.Errorf("NVM media bytes per 8B update = %.0f, want 256", perOp)
	}
}

// X-Mem places the large GUPS region in NVM even though DRAM is free.
func TestXMemPlacesLargeRegionsInNVM(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.XMem(xmem.DefaultXMemThreshold))
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 16 * sim.GB})
	small := m.AS.Map("small", 64*sim.MB)
	m.Warm()
	if got := g.Region().Frac(vm.TierNVM); got != 1 {
		t.Errorf("large region NVM frac = %v, want 1", got)
	}
	if got := small.Frac(vm.TierDRAM); got != 1 {
		t.Errorf("small region DRAM frac = %v, want 1", got)
	}
}

// DRAMFirst falls back to NVM when DRAM capacity is exhausted.
func TestDRAMCapacityEnforced(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg, xmem.DRAMFirst())
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 256 * sim.GB})
	m.Warm()
	dramBytes := g.Region().Bytes(vm.TierDRAM)
	if dramBytes > m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("placed %d bytes in %d-byte DRAM", dramBytes, m.CapacityOf(vm.TierDRAM))
	}
	if g.Region().Frac(vm.TierNVM) < 0.2 {
		t.Fatal("overflow did not spill to NVM")
	}
}

// Opt keeps the designated hot set in DRAM; with 90% of traffic there,
// it beats NVM-only placement severalfold.
func TestOptPlacement(t *testing.T) {
	build := func(mgrFor func(hot *vm.PageSet) machine.Manager) float64 {
		// Two-phase construction: map first with a placeholder, then
		// attach the real manager. Simpler: create machine with a
		// deferred manager choice via static NVM, then recreate.
		m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
		g := gups.New(m, gups.Config{
			Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 7,
		})
		_ = g
		return 0
	}
	_ = build

	// Direct construction: Opt needs the hot set, which needs the
	// machine; use a fresh machine and swap the manager before Warm.
	mOpt := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	gOpt := gups.New(mOpt, gups.Config{Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 7})
	opt := xmem.Opt(gOpt.HotPages())
	mOpt.SetManager(opt)
	mOpt.Warm()
	mOpt.Run(2 * sim.Second)
	optScore := gOpt.Score()

	mNVM := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	gNVM := gups.New(mNVM, gups.Config{Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 7})
	mNVM.Warm()
	mNVM.Run(2 * sim.Second)
	nvmScore := gNVM.Score()

	if optScore < 3*nvmScore {
		t.Errorf("Opt (%.3f) should be ≫ NVM-only (%.3f)", optScore, nvmScore)
	}
	// Hot set is fully in DRAM.
	if gOpt.HotPages().Frac(vm.TierDRAM) != 1 {
		t.Error("Opt did not pin hot set in DRAM")
	}
}

// Migrator moves pages at bounded rate, updates wear and placement, and
// reports stats.
func TestMigratorBasics(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	r := m.AS.Map("data", 64*sim.MB)
	m.Warm()

	m.NVM.ResetWear()
	m.DRAM.ResetWear()
	for i := 0; i < r.NumPages(); i++ {
		p := r.PageAt(i)
		if !m.Migrator.Enqueue(p, vm.TierDRAM) {
			t.Fatal("enqueue failed")
		}
	}
	// Re-enqueue while migrating is refused.
	if m.Migrator.Enqueue(r.PageAt(0), vm.TierDRAM) {
		t.Fatal("double enqueue accepted")
	}
	if m.Migrator.QueueLen() != 32 {
		t.Fatalf("queue len = %d, want 32", m.Migrator.QueueLen())
	}
	// 64 MB at ~6.5 GB/s needs ~10 ms.
	m.Run(20 * sim.Millisecond)
	if got := r.Frac(vm.TierDRAM); got != 1 {
		t.Fatalf("after migration, DRAM frac = %v, want 1", got)
	}
	st := m.Migrator.Stats()
	if st.Promotions != 32 || st.Pages != 32 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != float64(64*sim.MB) {
		t.Fatalf("migrated bytes = %v, want 64MB", st.Bytes)
	}
	// Wear: read from NVM, write to DRAM.
	if m.NVM.Wear().ReadBytes != float64(64*sim.MB) {
		t.Fatalf("NVM read wear = %v", m.NVM.Wear().ReadBytes)
	}
	if m.DRAM.Wear().WriteBytes != float64(64*sim.MB) {
		t.Fatalf("DRAM write wear = %v", m.DRAM.Wear().WriteBytes)
	}
}

// Migration rate cap bounds progress per quantum.
func TestMigratorRateCap(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	r := m.AS.Map("data", 2*sim.GB)
	m.Warm()
	m.Migrator.RateCap = sim.GBps(1)
	for i := 0; i < r.NumPages(); i++ {
		p := r.PageAt(i)
		m.Migrator.Enqueue(p, vm.TierDRAM)
	}
	m.Run(1 * sim.Second)
	moved := r.Bytes(vm.TierDRAM)
	if moved < sim.GB*8/10 || moved > sim.GB*12/10 {
		t.Fatalf("moved %d bytes in 1s at 1GB/s cap", moved)
	}
}

// The dynamic hot-set shift changes which pages are hot without changing
// set sizes.
func TestGUPSShiftHotSet(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 64 * sim.GB, HotSet: 16 * sim.GB, Seed: 3})
	m.Warm()
	before := map[vm.PageID]bool{}
	for _, id := range g.HotPages().IDs() {
		before[id] = true
	}
	hotLen, coldLen := g.HotPages().Len(), 0
	g.ShiftHotSet(4*sim.GB, 99)
	if g.HotPages().Len() != hotLen {
		t.Fatalf("hot set size changed: %d → %d", hotLen, g.HotPages().Len())
	}
	_ = coldLen
	changed := 0
	for _, id := range g.HotPages().IDs() {
		if !before[id] {
			changed++
		}
	}
	wantChanged := int(4 * sim.GB / m.Cfg.PageSize)
	if changed < wantChanged*9/10 || changed > wantChanged {
		t.Fatalf("shifted %d pages, want ~%d", changed, wantChanged)
	}
}

// Write-skew configuration (Table 2) builds three disjoint components.
func TestGUPSWriteSkewComponents(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: 1,
	})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	var share float64
	for _, c := range comps {
		share += c.Share
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("total share = %v, want 1", share)
	}
	if comps[0].ReadBytes != 0 || comps[0].WriteBytes == 0 {
		t.Fatal("first component should be write-only")
	}
	if comps[1].WriteBytes != 0 || comps[2].WriteBytes != 0 {
		t.Fatal("read components should not write")
	}
	if g.WriteOnlyPages().Len() != int(128*sim.GB/m.Cfg.PageSize) {
		t.Fatalf("write-only pages = %d", g.WriteOnlyPages().Len())
	}
}

// Machine records instantaneous throughput series.
func TestThroughputSeries(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 8 * sim.GB})
	m.Warm()
	m.Run(2 * sim.Second)
	s := m.Throughput(g.Name())
	if s.Len() < 10 {
		t.Fatalf("series has %d points, want ≥10 over 2s at 100ms", s.Len())
	}
	if s.Mean() <= 0 {
		t.Fatal("series mean not positive")
	}
}

// Access-integral tracking accumulates per-page rates for scanners.
func TestRatesIntegralAccumulates(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 8 * sim.GB})
	m.Warm()
	m.Run(sim.Second)
	// All-set integral: total ops / pages.
	allSet := g.Components()[0].Set
	r := m.Rates(allSet)
	wantPerPage := g.Updates() / float64(allSet.Len())
	if r.ReadIntegral < wantPerPage*0.99 || r.ReadIntegral > wantPerPage*1.01 {
		t.Fatalf("ReadIntegral = %v, want %v", r.ReadIntegral, wantPerPage)
	}
	if r.WriteIntegral < wantPerPage*0.99 || r.WriteIntegral > wantPerPage*1.01 {
		t.Fatalf("WriteIntegral = %v, want %v", r.WriteIntegral, wantPerPage)
	}
	if r.ReadRate <= 0 {
		t.Fatal("ReadRate not positive")
	}
}

// StallAll slows application progress in the next quantum.
func TestStallSlowsApps(t *testing.T) {
	run := func(stall bool) float64 {
		m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
		g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 8 * sim.GB})
		m.Warm()
		for i := 0; i < 1000; i++ {
			if stall {
				m.StallAll(machine.Quantum / 2) // 50% stall
			}
			m.Step(machine.Quantum)
		}
		return g.Score()
	}
	free := run(false)
	stalled := run(true)
	if stalled > free*0.6 {
		t.Fatalf("50%% stall only reduced GUPS %.3f → %.3f", free, stalled)
	}
}

// PlacementCost splits by tier occupancy.
func TestPlacementCostTierSplit(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	r := m.AS.Map("data", 8*sim.MB)
	m.Warm()
	set := r.AsSet()
	c := machine.Component{Set: set, Share: 1, ReadBytes: 8, Pattern: mem.Random}
	allNVM := m.PlacementCost(c)
	// Move half to DRAM: cost drops.
	for i := 0; i < 2; i++ {
		m.AS.SetTier(r.PageAt(i), vm.TierDRAM)
	}
	half := m.PlacementCost(c)
	if half.Time >= allNVM.Time {
		t.Fatalf("half-DRAM cost %v not below all-NVM %v", half.Time, allNVM.Time)
	}
	dram, _ := m.DevOf(vm.TierDRAM)
	nvm, _ := m.DevOf(vm.TierNVM)
	if half.Bytes[dram][mem.Read] == 0 || half.Bytes[nvm][mem.Read] == 0 {
		t.Fatal("split bytes missing a device")
	}
	// NVM side uses media granularity (256B per 8B read).
	if got := allNVM.Bytes[nvm][mem.Read]; got != 256 {
		t.Fatalf("NVM media bytes per 8B read = %v, want 256", got)
	}
}

func TestWarmPlacesEverything(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	m.AS.Map("a", 10*sim.MB)
	m.AS.Map("b", 10*sim.MB)
	m.Warm()
	if m.Faults() != 10 {
		t.Fatalf("faults = %d, want 10", m.Faults())
	}
	for _, r := range m.AS.Regions {
		if r.Count(vm.TierNone) != 0 {
			t.Fatalf("region %s has unplaced pages", r.Name)
		}
	}
	// Warm is idempotent.
	m.Warm()
	if m.Faults() != 10 {
		t.Fatal("second Warm re-faulted pages")
	}
}

// Telemetry records device bandwidth within physical ceilings and exports
// aligned CSV.
func TestTelemetry(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	gups.New(m, gups.Config{Threads: 16, WorkingSet: 16 * sim.GB})
	m.Warm()
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	m.Run(2 * sim.Second)

	wr := tel.Series("nvm.write.gbps")
	if wr == nil || wr.Len() < 10 {
		t.Fatalf("nvm write series missing or short")
	}
	for i, v := range wr.Values {
		if v < 0 || v > 2.4 { // NVM random-write ceiling is 2.3 GB/s
			t.Fatalf("sample %d: NVM write %.2f GB/s outside physical ceiling", i, v)
		}
	}
	if tel.Series("stall.frac") == nil || tel.Series("migration.queue.pages") == nil {
		t.Fatal("expected series missing")
	}

	var buf strings.Builder
	if err := tel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != wr.Len()+1 {
		t.Fatalf("CSV rows = %d, want %d", len(lines), wr.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "t_seconds,") || !strings.Contains(lines[0], "nvm.write.gbps") {
		t.Fatalf("CSV header malformed: %s", lines[0])
	}
	cols := strings.Count(lines[0], ",")
	for i, ln := range lines[1:] {
		if strings.Count(ln, ",") != cols {
			t.Fatalf("row %d column count mismatch", i+1)
		}
	}
}

// A partial config keeps every field the caller did set: each zero
// field falls back to its own default, one by one.
func TestZeroCoresKeepsCallerFields(t *testing.T) {
	m := machine.New(machine.Config{
		Seed:     7,
		PageSize: 4096,
		Tiers:    []machine.TierDesc{{ID: vm.TierDRAM, Capacity: 16 * sim.GB}, {ID: vm.TierNVM}},
	}, xmem.DRAMFirst())
	if m.Cfg.Seed != 7 || m.Cfg.PageSize != 4096 {
		t.Errorf("caller's seed/page size lost: seed %d, page size %d", m.Cfg.Seed, m.Cfg.PageSize)
	}
	if got := m.CapacityOf(vm.TierDRAM); got != 16*sim.GB {
		t.Errorf("DRAM capacity %d, want the caller's 16 GB", got)
	}
	if got := m.CapacityOf(vm.TierNVM); got != 768*sim.GB {
		t.Errorf("zero NVM capacity resolved to %d, want the 768 GB default", got)
	}
}

// RunUntilDone never runs past maxDuration, even when maxDuration is not
// a whole number of quanta.
func TestRunUntilDoneStopsAtMaxDuration(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	gups.New(m, gups.Config{Threads: 4, WorkingSet: 4 * sim.GB})
	m.Warm()
	start := m.Clock.Now()
	const limit = 5 * sim.Millisecond / 2
	m.RunUntilDone(limit)
	if got := m.Clock.Now() - start; got != limit {
		t.Errorf("RunUntilDone(%d) advanced the clock %d", limit, got)
	}
}

// quantumRecorder places every page in DRAM and records each OnQuantum
// call's (now, dt).
type quantumRecorder struct {
	m     *machine.Machine
	calls [][2]int64
}

func (*quantumRecorder) Name() string                { return "recorder" }
func (r *quantumRecorder) Attach(m *machine.Machine) { r.m = m }
func (r *quantumRecorder) PageIn(p *vm.Page)         { r.m.AS.SetTier(p, vm.TierDRAM) }
func (r *quantumRecorder) OnQuantum(now, dt int64)   { r.calls = append(r.calls, [2]int64{now, dt}) }
func (*quantumRecorder) ActiveThreads() float64      { return 0 }

// Run(d) steps one Quantum at a time, even on an idle machine:
// ceil(d/Quantum) steps, each a whole quantum starting where the last one
// ended, except a short last step that lands exactly on the end.
func TestRunStepsWholeQuanta(t *testing.T) {
	q := machine.Quantum
	for _, d := range []int64{q / 3, q, 3 * q, 5*q + q/2} {
		rec := &quantumRecorder{}
		m := machine.New(machine.DefaultConfig(), rec)
		start := m.Clock.Now()
		m.Run(d)
		if want := int((d + q - 1) / q); len(rec.calls) != want {
			t.Fatalf("Run(%d): %d steps, want %d", d, len(rec.calls), want)
		}
		for i, c := range rec.calls {
			now, dt := start+int64(i)*q, min(q, start+d-c[0])
			if c != [2]int64{now, dt} {
				t.Errorf("Run(%d): step %d is (now %d, dt %d), want (%d, %d)", d, i, c[0], c[1], now, dt)
			}
		}
		if got := m.Clock.Now() - start; got != d {
			t.Errorf("Run(%d) advanced the clock %d", d, got)
		}
	}
}

// Step(0) is a no-op and a negative step panics before it changes
// anything: neither moves the clock, the ops count or the score.
func TestStepRejectsNonPositive(t *testing.T) {
	for _, dt := range []int64{0, -1000} {
		m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
		g := gups.New(m, gups.Config{Threads: 4, WorkingSet: 4 * sim.GB})
		m.Warm()
		m.Run(5 * sim.Millisecond)
		now, ops, score := m.Clock.Now(), m.TotalOps("gups"), g.Score()
		func() {
			defer func() {
				if r := recover(); (r != nil) != (dt < 0) {
					t.Errorf("Step(%d) panicked with %v", dt, r)
				}
			}()
			m.Step(dt)
		}()
		if m.Clock.Now() != now || m.TotalOps("gups") != ops || g.Score() != score {
			t.Errorf("Step(%d): clock %d, ops %v, score %v; want %d, %v, %v",
				dt, m.Clock.Now(), m.TotalOps("gups"), g.Score(), now, ops, score)
		}
	}
}

// The tier set is one fixed table: each built-in tier's name, device
// spec and default capacity come from it, a value outside it prints
// explicitly, and Validate rejects any row whose ID is not a built-in
// tier (including TierNone and the negative IDs an int8 wraps to).
func TestBuiltinTierTable(t *testing.T) {
	rows := []struct {
		id   vm.TierID
		name string
		spec func(int64) mem.Spec
		def  int64
	}{
		{vm.TierDRAM, "DRAM", mem.DRAMSpec, 192 * sim.GB},
		{vm.TierNVM, "NVM", mem.NVMSpec, 768 * sim.GB},
		{vm.TierDisk, "disk", mem.DiskSpec, 4 * sim.TB},
		{vm.TierCXL, "CXL", mem.CXLSpec, 0},
	}
	m := machine.New(machine.Config{}, core.New(core.DefaultConfig()))
	for _, r := range rows {
		if got := r.id.String(); got != r.name {
			t.Errorf("tier %d prints %q, want %q", int(r.id), got, r.name)
		}
		b, ok := mem.Builtin(r.id)
		if !ok {
			t.Fatalf("%v has no built-in row", r.id)
		}
		if got, want := b.Spec(sim.GB), r.spec(sim.GB); got != want {
			t.Errorf("%v spec = %+v, want %+v", r.id, got, want)
		}
		if b.DefaultCapacity != r.def {
			t.Errorf("%v default capacity = %d, want %d", r.id, b.DefaultCapacity, r.def)
		}
		// The default testbed holds DRAM, NVM and disk at their defaults;
		// CXL is absent, so its capacity reads as its (zero) default too.
		if got := m.CapacityOf(r.id); got != r.def {
			t.Errorf("default machine %v capacity = %d, want %d", r.id, got, r.def)
		}
	}
	if s := vm.Tier(11).String(); s != "tier(11)" {
		t.Errorf("Tier(11) prints %q, want tier(11)", s)
	}
	for _, id := range []vm.TierID{0, 5, 7, 8, -1} {
		cfg := machine.DefaultConfig()
		cfg.Tiers = append(cfg.Tiers, machine.TierDesc{ID: id, Capacity: sim.GB})
		if err := cfg.Validate(); err == nil {
			t.Errorf("tier ID %d validated", int(id))
		}
	}
}
