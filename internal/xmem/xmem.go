// Package xmem implements static tier placements: the X-Mem emulation the
// paper compares against (large heap ranges with random access placed in
// NVM, §5), plus the DRAM-only, NVM-only and "Opt" (oracle hot-set
// placement, Figure 8) configurations used throughout the evaluation.
//
// Static managers do no tracking and no migration: placement is decided
// once, at first touch.
package xmem

import (
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Static is a Manager whose placement function runs once per page at first
// touch. It enforces DRAM capacity against the machine's committed ledger:
// if the placement function asks for DRAM but none is left, the page falls
// to NVM.
type Static struct {
	name  string
	place func(p *vm.Page) vm.Tier
	m     *machine.Machine
}

// New builds a static manager with the given placement function.
func New(name string, place func(p *vm.Page) vm.Tier) *Static {
	return &Static{name: name, place: place}
}

// NVMOnly places every page in NVM — the X-Mem configuration for large
// randomly-accessed heap structures ("we modify mmap to map memory from
// the NVM DAX file", §5.1).
func NVMOnly() *Static {
	return New("NVM", func(*vm.Page) vm.Tier { return vm.TierNVM })
}

// DRAMFirst fills DRAM before spilling to NVM; with a working set that
// fits in DRAM this is the paper's "DRAM" baseline.
func DRAMFirst() *Static {
	return New("DRAM", func(*vm.Page) vm.Tier { return vm.TierDRAM })
}

// Opt places the pages of hot in DRAM, then fills the remaining DRAM with
// other pages as they are touched (reserving room for hot pages not yet
// seen), with no scanning or migration: the oracle of Figure 8.
func Opt(hot *vm.PageSet) *Static {
	s := New("Opt", nil)
	place := OptPlacement(hot)
	s.place = func(p *vm.Page) vm.Tier { return place(s.m, p) }
	return s
}

// OptPlacement is the oracle's first-touch rule, for Opt and for any
// manager given it as a placement hook: a page of hot goes to DRAM; any
// other page takes DRAM only if room remains on machine m's committed
// ledger after reserving space for every hot page not yet placed. Each
// call counts a hot page as placed, so the rule must see every page
// exactly once.
func OptPlacement(hot *vm.PageSet) func(m *machine.Machine, p *vm.Page) vm.Tier {
	inHot := make(map[vm.PageID]bool, hot.Len())
	for _, id := range hot.IDs() {
		inHot[id] = true
	}
	hotLeft := int64(hot.Len())
	return func(m *machine.Machine, p *vm.Page) vm.Tier {
		ps := m.Cfg.PageSize
		if inHot[p.ID] {
			hotLeft--
			return vm.TierDRAM
		}
		if m.Committed(vm.TierDRAM)+hotLeft*ps+ps <= m.CapacityOf(vm.TierDRAM) {
			return vm.TierDRAM
		}
		return vm.TierNVM
	}
}

// XMem emulates X-Mem's static data tiering: regions at or above the size
// threshold go to NVM (large, long-lived ranges), smaller regions stay in
// DRAM.
func XMem(threshold int64) *Static {
	s := New("X-Mem", nil)
	s.place = func(p *vm.Page) vm.Tier {
		if s.m.AS.RegionOf(p.ID).Size() >= threshold {
			return vm.TierNVM
		}
		return vm.TierDRAM
	}
	return s
}

// Name implements machine.Manager.
func (s *Static) Name() string { return s.name }

// Attach implements machine.Manager.
func (s *Static) Attach(m *machine.Machine) { s.m = m }

// PageIn implements machine.Manager: place once, fall back to NVM when
// DRAM is exhausted.
func (s *Static) PageIn(p *vm.Page) {
	t := s.place(p)
	if t == vm.TierDRAM && s.DRAMUsed()+s.m.Cfg.PageSize > s.m.CapacityOf(vm.TierDRAM) {
		t = vm.TierNVM
	}
	s.m.AS.SetTier(p, t)
}

// OnQuantum implements machine.Manager; static placement has no background
// work.
func (s *Static) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager; static placement consumes no
// cores.
func (s *Static) ActiveThreads() float64 { return 0 }

// DRAMUsed returns the bytes committed to DRAM: the machine's ledger.
func (s *Static) DRAMUsed() int64 { return s.m.Committed(vm.TierDRAM) }

// DefaultXMemThreshold matches HeMem's large-allocation threshold (1 GB):
// ranges this large are the ones X-Mem tiers into NVM.
const DefaultXMemThreshold = 1 * sim.GB
