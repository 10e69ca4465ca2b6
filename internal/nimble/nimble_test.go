package nimble_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/nimble"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Nimble's configuration matches the paper's description: one kernel
// thread serializing scan and migration, no DMA, blind to read/write
// asymmetry. Its four copy threads are checked on the running machine by
// ptscan's TestNimbleUsesCopyThreads.
func TestOptionsMatchPaper(t *testing.T) {
	o := nimble.Options()
	if o.Async {
		t.Error("Nimble must serialize scan and migration on one thread")
	}
	if o.UseDMA {
		t.Error("Nimble copies with threads, not DMA")
	}
	if o.WritePriority {
		t.Error("Nimble is blind to read/write asymmetry (Table 2)")
	}
}

// On GUPS, scan passes are long enough that even cold pages look
// accessed, so Nimble cannot tell the hot set apart (the over-estimation
// of §2.3): placement stays near the initial proportional split — no
// catastrophic churn, but no improvement either — while the watermark
// keeps free DRAM available.
func TestNimbleBlindOnSaturatedBits(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), nimble.New())
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 256 * sim.GB, HotSet: 8 * sim.GB, Seed: 4,
	})
	m.Warm()
	before := g.HotPages().Frac(vm.TierDRAM)
	m.Run(60 * sim.Second)
	after := g.HotPages().Frac(vm.TierDRAM)
	if after < before-0.05 || after > before+0.1 {
		t.Fatalf("placement should stay near the initial split: %.2f → %.2f", before, after)
	}
	// The free-DRAM watermark did force some eviction traffic.
	if m.Migrator.Stats().Pages == 0 {
		t.Fatal("Nimble never migrated")
	}
}
