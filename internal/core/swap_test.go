package core_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// swapConfig returns a HeMem config with the §3.4 swap tier enabled.
func swapConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.EnableSwap = true
	return cfg
}

// With swap enabled, first-touch placement spills past NVM onto the disk
// tier instead of overcommitting NVM.
func TestSwapSpillsToDisk(t *testing.T) {
	h := core.New(swapConfig())
	m := machine.New(machine.DefaultConfig(), h)
	r := m.AS.Map("huge", 1100*sim.GB) // > 192 GB DRAM + 768 GB NVM
	m.Warm()
	if r.Count(vm.TierDisk) == 0 {
		t.Fatal("nothing spilled to disk")
	}
	if got := r.Bytes(vm.TierDRAM); got > m.CapacityOf(vm.TierDRAM) {
		t.Fatalf("DRAM overcommitted: %d", got)
	}
	if got := r.Bytes(vm.TierNVM); got > m.CapacityOf(vm.TierNVM) {
		t.Fatalf("NVM overcommitted: %d", got)
	}
	// Conservation.
	total := r.Count(vm.TierDRAM) + r.Count(vm.TierNVM) + r.Count(vm.TierDisk)
	if total != r.NumPages() {
		t.Fatalf("pages unaccounted: %d != %d", total, r.NumPages())
	}
}

// Without swap (the prototype default), the same mapping overflows into
// NVM only.
func TestNoSwapByDefault(t *testing.T) {
	h := core.New(core.DefaultConfig())
	m := machine.New(machine.DefaultConfig(), h)
	r := m.AS.Map("huge", 1100*sim.GB)
	m.Warm()
	if r.Count(vm.TierDisk) != 0 {
		t.Fatal("disk used with swap disabled")
	}
}

// Traffic reaching disk-resident pages swaps them in; an untouched cold
// majority stays out; the hot set still climbs to DRAM.
func TestSwapInOnTraffic(t *testing.T) {
	h := core.New(swapConfig())
	m := machine.New(machine.DefaultConfig(), h)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 1100 * sim.GB, HotSet: 16 * sim.GB, Seed: 21,
	})
	m.Warm()
	hotOnDisk := g.HotPages().Count(vm.TierDisk)
	if hotOnDisk == 0 {
		t.Skip("layout put no hot pages on disk") // scattered set: ~13% expected
	}
	m.Run(240 * sim.Second)
	st := h.Stats()
	if st.SwapIns == 0 {
		t.Fatal("no swap-ins despite traffic to disk pages")
	}
	if got := g.HotPages().Count(vm.TierDisk); got >= hotOnDisk/4 {
		t.Errorf("hot pages still on disk: %d of initial %d", got, hotOnDisk)
	}
	// Identification is slow at this scale (the op rate is disk-bound
	// early on); require clear upward progress rather than full
	// convergence.
	if f := g.HotPages().Frac(vm.TierDRAM); f < 0.4 {
		t.Errorf("hot set DRAM fraction = %.2f after 240s, want ≥0.4", f)
	}
	// Disk wear happened (swap-outs write the device).
	if st.SwapOuts == 0 && m.Disk.Wear().WriteBytes == 0 {
		t.Error("no swap-out activity recorded")
	}
}

// The swap tier is strictly slower: a working set overflowing to disk
// without swap-in support (static NVM-style placement via disabled
// migration) runs slower than managed HeMem with swap.
func TestSwapManagedBeatsFrozen(t *testing.T) {
	run := func(migrate bool) float64 {
		cfg := swapConfig()
		cfg.NoMigration = !migrate
		h := core.New(cfg)
		m := machine.New(machine.DefaultConfig(), h)
		g := gups.New(m, gups.Config{
			Threads: 16, WorkingSet: 1100 * sim.GB, HotSet: 16 * sim.GB, Seed: 21,
		})
		m.Warm()
		m.Run(150 * sim.Second)
		g.ResetScore()
		m.Run(30 * sim.Second)
		return g.Score()
	}
	managed := run(true)
	frozen := run(false)
	if managed <= frozen {
		t.Errorf("managed swap (%.4f) should beat frozen placement (%.4f)", managed, frozen)
	}
}
