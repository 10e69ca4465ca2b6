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
// touch. It enforces DRAM capacity: if the placement function asks for
// DRAM but none is left, the page falls to NVM.
type Static struct {
	name  string
	place func(p *vm.Page) vm.Tier

	m         *machine.Machine
	dramUsed  int64
	dramCap   int64
	nvmUsed   int64
	reserveGB int64
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
	inHot := make(map[vm.PageID]bool, hot.Len())
	for _, p := range hot.Pages() {
		inHot[p.ID] = true
	}
	s := New("Opt", nil)
	hotLeft := int64(hot.Len())
	s.place = func(p *vm.Page) vm.Tier {
		ps := p.Region.PageSize
		if inHot[p.ID] {
			hotLeft--
			return vm.TierDRAM
		}
		// Cold page: take DRAM only if room remains after reserving
		// space for every unplaced hot page.
		if s.dramUsed+hotLeft*ps+ps <= s.dramCap {
			return vm.TierDRAM
		}
		return vm.TierNVM
	}
	return s
}

// XMem emulates X-Mem's static data tiering: regions at or above the size
// threshold go to NVM (large, long-lived ranges), smaller regions stay in
// DRAM.
func XMem(threshold int64) *Static {
	return New("X-Mem", func(p *vm.Page) vm.Tier {
		if p.Region.Size() >= threshold {
			return vm.TierNVM
		}
		return vm.TierDRAM
	})
}

// Name implements machine.Manager.
func (s *Static) Name() string { return s.name }

// Attach implements machine.Manager.
func (s *Static) Attach(m *machine.Machine) {
	s.m = m
	s.dramCap = m.CapacityOf(vm.TierDRAM)
}

// PageIn implements machine.Manager: place once, fall back to NVM when
// DRAM is exhausted.
func (s *Static) PageIn(p *vm.Page) {
	t := s.place(p)
	if t == vm.TierDRAM && s.dramUsed+s.m.Cfg.PageSize > s.dramCap {
		t = vm.TierNVM
	}
	if t == vm.TierDRAM {
		s.dramUsed += s.m.Cfg.PageSize
	} else {
		s.nvmUsed += s.m.Cfg.PageSize
	}
	p.SetTier(t)
}

// OnQuantum implements machine.Manager; static placement has no background
// work.
func (s *Static) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager; static placement consumes no
// cores.
func (s *Static) ActiveThreads() float64 { return 0 }

// DRAMUsed returns bytes placed in DRAM.
func (s *Static) DRAMUsed() int64 { return s.dramUsed }

// DefaultXMemThreshold matches HeMem's large-allocation threshold (1 GB):
// ranges this large are the ones X-Mem tiers into NVM.
const DefaultXMemThreshold = 1 * sim.GB
