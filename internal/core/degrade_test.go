package core_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// A HeMem attached after a tier went offline (the manager swap fig8
// makes) reads liveness from the machine: it places none of a fresh
// region's pages on the offline tier, none arrive there while it stays
// offline, and its lifecycle counters are the machine's.
func TestAttachAfterOfflineAvoidsOfflineTier(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Tiers = machine.ClassicTiers(4*sim.GB, 16*sim.GB, 0)
	m := machine.New(cfg, core.New(core.DefaultConfig()))
	if !m.OfflineTier(vm.TierDRAM) {
		t.Fatal("DRAM did not go offline")
	}
	h := core.New(core.DefaultConfig())
	m.SetManager(h)
	r := m.AS.Map("fresh", 2*sim.GB)
	m.Warm()
	// HeMem's own lists, not the machine's re-placement, show where it
	// put each page.
	if n := h.HotBytes(vm.TierDRAM) + h.ColdBytes(vm.TierDRAM); n != 0 {
		t.Fatalf("HeMem placed %d MB on offline DRAM", n/sim.MB)
	}
	m.Run(sim.Second)
	if n := r.Count(vm.TierDRAM); n != 0 {
		t.Fatalf("%d of %d pages on offline DRAM 1 s after first touch", n, r.NumPages())
	}
	m.OnlineTier(vm.TierDRAM)
	if st := h.Stats(); st.TierOfflines != 1 || st.TierOnlines != 1 {
		t.Fatalf("Stats: %d offline / %d online events, want 1 / 1", st.TierOfflines, st.TierOnlines)
	}
}

// Every page leaves an offline tier, not only the ones HeMem's FIFO
// lists hold: HeMem drains its managed region, and the machine's sweep
// evacuates the small (kernel-path) and pinned regions it does not
// track, so the drain completes and its time is recorded.
func TestOfflineTierEvacuatesUntrackedRegions(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Tiers = machine.ClassicTiers(4*sim.GB, 16*sim.GB, 0)
	h := core.New(core.DefaultConfig())
	m := machine.New(cfg, h)
	small := m.AS.Map("small", 512*sim.MB)
	managed := m.AS.Map("managed", 2*sim.GB)
	pinned := m.AS.Map("pinned", 1*sim.GB)
	h.PinRegion(pinned)
	m.Warm()
	for _, r := range []*vm.Region{small, managed, pinned} {
		if n := r.Count(vm.TierDRAM); n != r.NumPages() {
			t.Fatalf("%s: %d of %d pages on DRAM before the outage", r.Name, n, r.NumPages())
		}
	}
	if !m.OfflineTier(vm.TierDRAM) {
		t.Fatal("DRAM did not go offline")
	}
	m.Run(5 * sim.Second)
	for _, r := range []*vm.Region{small, managed, pinned} {
		if n := r.Count(vm.TierDRAM); n != 0 {
			t.Errorf("%s: %d of %d pages still on offline DRAM", r.Name, n, r.NumPages())
		}
	}
	if n := m.AS.Count(vm.TierDRAM); n != 0 {
		t.Errorf("%d pages still on offline DRAM", n)
	}
	if n := m.FaultCounters().TierEvacuations; n != 1 {
		t.Errorf("%d evacuations recorded, want 1", n)
	}
}
