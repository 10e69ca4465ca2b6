package machine_test

import (
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// stubMgr is a minimal NVM-first manager that records abandoned-migration
// callbacks.
type stubMgr struct {
	m      *machine.Machine
	failed []vm.PageID
	dsts   []vm.Tier
}

func (s *stubMgr) Name() string              { return "stub" }
func (s *stubMgr) Attach(m *machine.Machine) { s.m = m }
func (s *stubMgr) PageIn(p *vm.Page)         { s.m.AS.SetTier(p, vm.TierNVM) }
func (s *stubMgr) OnQuantum(now, dt int64)   {}
func (s *stubMgr) ActiveThreads() float64    { return 0 }
func (s *stubMgr) OnMigrationFailed(p *vm.Page, dst vm.Tier) {
	s.failed = append(s.failed, p.ID)
	s.dsts = append(s.dsts, dst)
}

// With abort probability 1, a migration makes exactly six attempts (the
// migrator's five retries) and is then abandoned with the page left intact in its
// source tier and every counter consistent.
func TestMigrationAbortRollbackAndAbandon(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{MigrationAbortProb: 1}
	mgr := &stubMgr{}
	m := machine.New(cfg, mgr)
	r := m.AS.Map("data", 2*sim.MB) // one page
	set := r.AsSet()
	m.Warm()
	m.NVM.ResetWear()
	m.DRAM.ResetWear()

	p := r.PageAt(0)
	if !m.Migrator.Enqueue(p, vm.TierDRAM) {
		t.Fatal("enqueue failed")
	}
	m.Run(50 * sim.Millisecond)

	fs := *m.FaultCounters()
	if fs.MigrationAborts != 6 || fs.MigrationRetries != 5 || fs.MigrationsAbandoned != 1 {
		t.Fatalf("aborts=%d retries=%d abandoned=%d, want 6/5/1",
			fs.MigrationAborts, fs.MigrationRetries, fs.MigrationsAbandoned)
	}
	// Rollback left the page in place with consistent occupancy.
	if p.Tier != vm.TierNVM {
		t.Fatalf("page tier = %v after abandon, want NVM", p.Tier)
	}
	if p.Migrating() {
		t.Fatal("Migrating still set after abandon")
	}
	if r.Count(vm.TierNVM) != 1 || r.Count(vm.TierDRAM) != 0 {
		t.Fatalf("region counts NVM=%d DRAM=%d, want 1/0", r.Count(vm.TierNVM), r.Count(vm.TierDRAM))
	}
	if set.Count(vm.TierNVM) != 1 || set.Count(vm.TierDRAM) != 0 {
		t.Fatalf("set counts NVM=%d DRAM=%d, want 1/0", set.Count(vm.TierNVM), set.Count(vm.TierDRAM))
	}
	if m.Migrator.QueueLen() != 0 || m.Migrator.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: len=%d bytes=%v", m.Migrator.QueueLen(), m.Migrator.QueuedBytes())
	}
	// Wear accounts every attempted copy exactly once: 6 attempts × 2 MB.
	want := float64(6 * 2 * sim.MB)
	if got := m.NVM.Wear().ReadBytes; got != want {
		t.Fatalf("NVM read wear = %v, want %v", got, want)
	}
	if got := m.DRAM.Wear().WriteBytes; got != want {
		t.Fatalf("DRAM write wear = %v, want %v", got, want)
	}
	// No committed migration.
	if st := m.Migrator.Stats(); st.Pages != 0 || st.Promotions != 0 {
		t.Fatalf("stats count abandoned move as committed: %+v", st)
	}
	// The manager was told exactly once.
	if len(mgr.failed) != 1 || mgr.failed[0] != p.ID || mgr.dsts[0] != vm.TierDRAM {
		t.Fatalf("failure callback = %v → %v, want [%d] → DRAM", mgr.failed, mgr.dsts, p.ID)
	}
}

// Urgent (emergency) migrations are exempt from injected aborts.
func TestUrgentMigrationNeverAborts(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{MigrationAbortProb: 1}
	mgr := &stubMgr{}
	m := machine.New(cfg, mgr)
	r := m.AS.Map("data", 2*sim.MB)
	m.Warm()

	p := r.PageAt(0)
	if !m.Migrator.EnqueueUrgent(p, vm.TierDRAM) {
		t.Fatal("urgent enqueue failed")
	}
	m.Run(10 * sim.Millisecond)
	if p.Tier != vm.TierDRAM {
		t.Fatalf("urgent migration did not commit: tier = %v", p.Tier)
	}
	if fs := m.FaultCounters(); fs.MigrationAborts != 0 {
		t.Fatalf("urgent migration aborted %d times", fs.MigrationAborts)
	}
}

// Losing every DMA channel degrades to the 4-thread software-copy pool,
// and migrations still complete afterwards.
func TestDMAChannelExhaustionFallsBackToThreads(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{DMAChannelMTBF: sim.Millisecond} // one failure per quantum
	m := machine.New(cfg, xmem.NVMOnly())
	r := m.AS.Map("data", 64*sim.MB)
	m.Warm()

	m.Run(20 * sim.Millisecond) // 8 channels die in the first 8 quanta
	fs := *m.FaultCounters()
	if fs.DMAChannelFailures != 8 {
		t.Fatalf("channel failures = %d, want 8 (then engine dead)", fs.DMAChannelFailures)
	}
	if fs.SoftwareCopyFallbacks != 1 {
		t.Fatalf("software fallbacks = %d, want 1", fs.SoftwareCopyFallbacks)
	}
	if n := m.Migrator.CopyThreads(); n != 4 {
		t.Fatalf("fallback copy threads = %d, want 4", n)
	}
	// The fallback still moves pages.
	for i := 0; i < r.NumPages(); i++ {
		p := r.PageAt(i)
		m.Migrator.Enqueue(p, vm.TierDRAM)
	}
	m.Run(100 * sim.Millisecond)
	if got := r.Frac(vm.TierDRAM); got != 1 {
		t.Fatalf("post-fallback migration incomplete: DRAM frac = %v", got)
	}
}

// DMA channel health is machine state: a manager attached after channels
// failed finds the engine as the faults left it. A swap to a manager that
// asks for DMA keeps the lost channels lost, and one after the engine died
// keeps copying with threads, so channel failures stay dropped and the
// fault counters stop at one engine's worth.
func TestDMAChannelHealthSurvivesSetManager(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{DMAChannelMTBF: sim.Millisecond} // one failure per quantum
	m := machine.New(cfg, xmem.NVMOnly())
	m.AS.Map("data", 64*sim.MB)
	m.Warm()

	for m.FaultCounters().DMAChannelFailures < 7 {
		m.Run(sim.Millisecond)
	}
	oneChannel := m.Migrator.CopyThroughput()
	m.SetManager(core.New(core.DefaultConfig()))
	if n, tp := m.Migrator.CopyThreads(), m.Migrator.CopyThroughput(); n != 0 || tp != oneChannel {
		t.Fatalf("after swap at 1 live channel: %d copy threads, %v bytes/ns; want DMA at %v", n, tp, oneChannel)
	}

	m.Run(20 * sim.Millisecond)
	if n := m.Migrator.CopyThreads(); n != 4 {
		t.Fatalf("copy threads = %d after the engine died, want 4", n)
	}
	threads := m.Migrator.CopyThroughput()
	m.SetManager(core.New(core.DefaultConfig()))
	if n, tp := m.Migrator.CopyThreads(), m.Migrator.CopyThroughput(); n != 4 || tp != threads {
		t.Fatalf("after swap on a dead engine: %d copy threads, %v bytes/ns; want 4 at %v", n, tp, threads)
	}
	m.Run(20 * sim.Millisecond)
	if fs := m.FaultCounters(); fs.DMAChannelFailures != 8 || fs.SoftwareCopyFallbacks != 1 {
		t.Fatalf("%d channel failures, %d fallbacks on an 8-channel engine; want 8, 1",
			fs.DMAChannelFailures, fs.SoftwareCopyFallbacks)
	}
}

// Uncorrectable NVM errors retire frames and remap pages; a manager that
// does not implement FaultHandler keeps its placement untouched.
func TestNVMUncorrectableRetiresFrames(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Faults = fault.Config{NVMUncorrectableMTBF: sim.Millisecond} // one UE per quantum
	mgr := &stubMgr{}
	m := machine.New(cfg, mgr)
	r := m.AS.Map("data", 64*sim.MB)
	m.Warm()

	m.Run(10 * sim.Millisecond)
	fs := *m.FaultCounters()
	if fs.NVMUncorrectable != 10 || fs.PagesRetired != 10 {
		t.Fatalf("UEs=%d retired=%d, want 10/10", fs.NVMUncorrectable, fs.PagesRetired)
	}
	if got := m.AS.RetiredFrames(); got != 10 {
		t.Fatalf("AS retired frames = %d, want 10", got)
	}
	remaps := 0
	for i := 0; i < r.NumPages(); i++ {
		p := r.PageAt(i)
		remaps += m.AS.Remaps(p)
		if p.Tier != vm.TierNVM {
			t.Fatalf("page %d left NVM under non-FaultHandler manager", p.ID)
		}
	}
	if remaps != 10 {
		t.Fatalf("total page remaps = %d, want 10", remaps)
	}
	if fs.Injected() == 0 || fs.Recoveries() == 0 {
		t.Fatalf("aggregate counters empty: injected=%d recoveries=%d", fs.Injected(), fs.Recoveries())
	}
}

// With injection disabled the injector must stay silent even across a
// long run; the machine's RNG stream is untouched.
func TestNoFaultsWithoutConfig(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	r := m.AS.Map("data", 64*sim.MB)
	m.Warm()
	for i := 0; i < r.NumPages(); i++ {
		p := r.PageAt(i)
		m.Migrator.Enqueue(p, vm.TierDRAM)
	}
	m.Run(100 * sim.Millisecond)
	if fs := *m.FaultCounters(); fs != (machine.FaultStats{}) {
		t.Fatalf("fault counters moved without injection: %+v", fs)
	}
	if m.Injector.Enabled() {
		t.Fatal("injector enabled with zero config")
	}
	if got := r.Frac(vm.TierDRAM); got != 1 {
		t.Fatalf("migrations incomplete: %v", got)
	}
}

// Config validation flags negative parameters, an empty tier table and
// a tier with no capacity, and accepts defaults.
func TestMachineConfigValidate(t *testing.T) {
	if err := (machine.Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := machine.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := machine.Config{PageSize: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative page size validated")
	}
	bad = machine.DefaultConfig()
	bad.Faults.MigrationAbortProb = 2
	if err := bad.Validate(); err == nil {
		t.Error("invalid fault config validated")
	}
	bad = machine.DefaultConfig()
	bad.Tiers = []machine.TierDesc{}
	if err := bad.Validate(); err == nil {
		t.Error("empty non-nil tier table validated")
	}
	// CXL has no default capacity, so a row must give one.
	bad.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 4 * sim.GB},
		{ID: vm.TierCXL},
		{ID: vm.TierNVM, Capacity: 64 * sim.GB},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "CXL") {
		t.Errorf("CXL row without a capacity: Validate returned %v, want an error naming CXL", err)
	}
}
