package xmem_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

func TestNVMOnly(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
	r := m.AS.Map("a", 10*sim.MB)
	m.Warm()
	if r.Frac(vm.TierNVM) != 1 {
		t.Fatal("NVMOnly placed pages outside NVM")
	}
}

func TestDRAMFirstSpills(t *testing.T) {
	s := xmem.DRAMFirst()
	m := machine.New(machine.DefaultConfig(), s)
	r := m.AS.Map("big", m.CapacityOf(vm.TierDRAM)+10*sim.MB)
	m.Warm()
	if got := r.Bytes(vm.TierDRAM); got != m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("DRAM bytes = %d, want full %d", got, m.CapacityOf(vm.TierDRAM))
	}
	if r.Count(vm.TierNVM) != 5 {
		t.Fatalf("spilled pages = %d, want 5", r.Count(vm.TierNVM))
	}
	if s.DRAMUsed() != m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("DRAMUsed = %d", s.DRAMUsed())
	}
}

func TestXMemThreshold(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.XMem(sim.GB))
	small := m.AS.Map("small", 512*sim.MB)
	large := m.AS.Map("large", 2*sim.GB)
	m.Warm()
	if small.Frac(vm.TierDRAM) != 1 {
		t.Fatal("small region should stay in DRAM")
	}
	if large.Frac(vm.TierNVM) != 1 {
		t.Fatal("large region should go to NVM")
	}
}

func TestOptPinsHotSetAndFillsDRAM(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Tiers = machine.ClassicTiers(10*sim.MB, 0, 0) // 5 pages
	boot := machine.New(cfg, xmem.NVMOnly())
	r := boot.AS.Map("data", 20*sim.MB) // 10 pages
	// Hot pages sit at the END of the region: first-touch order sees six
	// cold pages first and must reserve DRAM for the hot ones.
	hot := vm.NewPageSet("hot", r.AllPages()[6:])
	opt := xmem.Opt(hot)
	boot.Mgr = opt
	opt.Attach(boot)
	boot.Warm()
	if hot.Frac(vm.TierDRAM) != 1 {
		t.Fatal("Opt did not place hot set in DRAM despite cold pages arriving first")
	}
	// Leftover DRAM (1 page) is filled with a cold page; 5 cold in NVM.
	if r.Count(vm.TierDRAM) != 5 || r.Count(vm.TierNVM) != 5 {
		t.Fatalf("placement = %d DRAM / %d NVM, want 5/5", r.Count(vm.TierDRAM), r.Count(vm.TierNVM))
	}
	if opt.Name() != "Opt" {
		t.Fatalf("name = %q", opt.Name())
	}
}

func TestManagerInterfaceBasics(t *testing.T) {
	s := xmem.DRAMFirst()
	m := machine.New(machine.DefaultConfig(), s)
	if s.ActiveThreads() != 0 {
		t.Fatal("static manager should consume no cores")
	}
	s.OnQuantum(0, 1) // no-op, must not panic
	_ = m
}
