package core

import (
	"testing"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// smallMachine builds a tiny machine so classifier mechanics are easy to
// drive by hand.
func smallMachine(cfg Config) (*machine.Machine, *HeMem, *vm.Region) {
	// Shrink the management threshold to match the tiny region.
	cfg.LargeAllocThreshold = 64 * sim.MB
	h := New(cfg)
	mcfg := machine.DefaultConfig()
	mcfg.Tiers = machine.ClassicTiers(64*sim.MB, 256*sim.MB, 0)
	m := machine.New(mcfg, h)
	r := m.AS.Map("data", 128*sim.MB) // 64 pages; half must live in NVM
	m.Warm()
	return m, h, r
}

// feed pushes n samples for page id and drains them through the reader.
func feed(m *machine.Machine, h *HeMem, id vm.PageID, kind pebs.Kind, n int) {
	for i := 0; i < n; i++ {
		h.Buffer().Push(pebs.Record{Page: id, Kind: kind})
	}
	h.OnQuantum(m.Clock.Now(), sim.Second) // ample drain budget
}

func TestClassifierHotOnReadThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoCooling = true
	m, h, r := smallMachine(cfg)
	nvmPage := r.PageAt(40) // beyond the 32 DRAM pages
	if nvmPage.Tier != vm.TierNVM {
		t.Fatal("test setup: expected NVM page")
	}
	feed(m, h, nvmPage.ID, pebs.LoadNVM, cfg.HotReadThreshold-1)
	if h.HotBytes(vm.TierNVM) != 0 {
		t.Fatal("page hot below threshold")
	}
	feed(m, h, nvmPage.ID, pebs.LoadNVM, 1)
	if h.HotBytes(vm.TierNVM) != m.Cfg.PageSize {
		t.Fatal("page not hot at threshold")
	}
}

func TestClassifierWriteThresholdIsHalf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoCooling = true
	m, h, r := smallMachine(cfg)
	p := r.PageAt(40)
	feed(m, h, p.ID, pebs.Store, cfg.HotWriteThreshold)
	if h.HotBytes(vm.TierNVM) != m.Cfg.PageSize {
		t.Fatal("store threshold did not mark page hot")
	}
	pi := h.info(p.ID)
	if !pi.WriteHeavy {
		t.Fatal("page not write-heavy")
	}
	// Write-heavy pages sit at the front of the hot list.
	if h.hotList(vm.TierNVM).Front() != pi {
		t.Fatal("write-heavy page not prioritized")
	}
}

func TestCoolingHalvesCounts(t *testing.T) {
	cfg := DefaultConfig()
	m, h, r := smallMachine(cfg)
	p := r.PageAt(40)
	// Drive one page to the cooling threshold: the global clock advances
	// and the page itself is cooled immediately.
	feed(m, h, p.ID, pebs.LoadNVM, cfg.CoolThreshold)
	pi := h.info(p.ID)
	if st := h.Stats(); st.CoolEpochs == 0 {
		t.Fatal("cooling clock did not advance")
	}
	if int(pi.Reads) >= cfg.CoolThreshold {
		t.Fatalf("counts not halved: %d", pi.Reads)
	}
	// Another page cools lazily on its next sample.
	q := r.PageAt(41)
	feed(m, h, q.ID, pebs.LoadNVM, 4) // below everything
	qi := h.info(q.ID)
	if qi.CoolClock != pi.CoolClock {
		t.Fatal("lazy cooling did not synchronize clocks")
	}
}

func TestSecondChanceOnCooledWriteHeavy(t *testing.T) {
	cfg := DefaultConfig()
	m, h, r := smallMachine(cfg)
	p := r.PageAt(40)
	// Make it write-heavy, then force enough cooling epochs that writes
	// fall below the threshold while reads keep it hot.
	feed(m, h, p.ID, pebs.Store, cfg.HotWriteThreshold)
	feed(m, h, p.ID, pebs.LoadNVM, 12)
	pi := h.info(p.ID)
	if !pi.WriteHeavy {
		t.Fatal("setup: not write-heavy")
	}
	// Advance the global clock via another page and resample: epochs
	// elapse, writes halve below threshold.
	other := r.PageAt(42)
	for i := 0; i < 3; i++ {
		feed(m, h, other.ID, pebs.LoadNVM, cfg.CoolThreshold)
	}
	feed(m, h, p.ID, pebs.LoadNVM, cfg.HotReadThreshold) // re-hot via reads
	pi = h.info(p.ID)
	if pi.WriteHeavy {
		t.Fatal("write-heavy flag survived cooling")
	}
	if !h.inHotList(pi) {
		t.Fatal("second chance should keep the page on a hot list")
	}
}

// Engine invariant: every tracked page is on exactly one list (or in
// flight), and committed DRAM bytes match physical occupancy.
func TestEngineAccountingInvariant(t *testing.T) {
	h := New(DefaultConfig())
	m := machine.New(machine.DefaultConfig(), h)
	r := m.AS.Map("data", 8*sim.GB)
	m.Warm()
	m.Run(2 * sim.Second)
	listed := 0
	for i := range h.chain {
		listed += h.hot[i].Len() + h.cold[i].Len()
	}
	inflight := m.Migrator.QueueLen()
	if listed+inflight != r.NumPages() {
		t.Fatalf("listed %d + inflight %d != %d pages", listed, inflight, r.NumPages())
	}
	if h.DRAMUsed() != r.Bytes(vm.TierDRAM) {
		// In-flight promotions count as committed; allow the queue.
		diff := h.DRAMUsed() - r.Bytes(vm.TierDRAM)
		if diff < 0 || diff > int64(inflight)*m.Cfg.PageSize {
			t.Fatalf("DRAMUsed %d vs physical %d (inflight %d)", h.DRAMUsed(), r.Bytes(vm.TierDRAM), inflight)
		}
	}
}

func TestUnmanagedSamplesIgnored(t *testing.T) {
	cfg := DefaultConfig()
	m, h, _ := smallMachine(cfg)
	small := m.AS.Map("small", 2*sim.MB) // below LargeAllocThreshold
	m.Warm()
	feed(m, h, small.PageAt(0).ID, pebs.Store, 50)
	if got := h.Stats().Samples; got != 0 {
		t.Fatalf("unmanaged page samples counted: %d", got)
	}
}
