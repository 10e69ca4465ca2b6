// Package ptscan implements page-table-scanning tier management: the
// HeMem-PT-Sync and HeMem-PT-Async ablations of Figures 8, 9, 15 and 16,
// and the Nimble baseline (the Nimble preset).
//
// Scanning managers read page-table accessed/dirty bits instead of PEBS
// samples. The simulation evaluates bits lazily and statistically: each
// workload page set ("zone") accumulates an expected-accesses-per-page
// integral; at the end of a scan pass the scanner converts the integral
// delta into the probability that a page (and its constituent small-page
// PTEs) was touched since the previous pass. Clearing the bits costs TLB
// shootdowns, charged to every running thread.
//
// The failure mode the paper demonstrates emerges naturally: over a long
// pass, even cold pages are touched at least once, so every zone looks
// accessed, the hot-set estimate balloons (the paper measures up to 300 GB
// of a 512 GB working set considered hot), and migration placement becomes
// arbitrary.
package ptscan

import (
	"math"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/vm"
)

// SetScan is the result of one scan pass for one zone.
type SetScan struct {
	Set *vm.PageSet
	// ExpectedReads/ExpectedWrites are expected accesses per page of the
	// zone since the previous pass.
	ExpectedReads  float64
	ExpectedWrites float64
	// FracAccessed and FracDirty are the probabilities that a page of
	// the zone has its accessed/dirty bit set at this pass.
	FracAccessed float64
	FracDirty    float64
}

// Scanner models the page-table walk.
type Scanner struct {
	m *machine.Machine
	// Granularity is the page-table leaf size scanned. The DAX mappings
	// of the prototype expose base-page tables, so scans walk 4 KB PTEs
	// even though tiering happens on 2 MB pages.
	Granularity int64
	Model       vm.ScanModel

	snaps map[*vm.PageSet][2]float64 // integral snapshot at last pass
	out   []SetScan                  // Complete's result, reused
}

// NewScanner returns a scanner over m's address space.
func NewScanner(m *machine.Machine, granularity int64) *Scanner {
	if granularity <= 0 {
		granularity = 4 * 1024
	}
	return &Scanner{
		m:           m,
		Granularity: granularity,
		Model:       vm.DefaultScanModel(),
		snaps:       make(map[*vm.PageSet][2]float64),
	}
}

// PassTime returns the duration of one full scan pass over all mapped
// memory at the configured granularity (Figure 3's cost).
func (s *Scanner) PassTime() int64 {
	return s.Model.ScanTime(s.m.AS.TotalBytes(), s.Granularity)
}

// Complete finishes a pass: returns per-zone scan results, snapshots the
// integrals, and charges TLB-shootdown stalls for the scanned range to all
// running threads (the kernel flushes at a fixed interval as it scans and
// clears). The returned slice is owned by the scanner and valid only until
// the next Complete; callers that keep results must copy them.
func (s *Scanner) Complete() []SetScan {
	out := s.out[:0]
	for _, set := range s.m.RateSets() {
		r := s.m.Rates(set)
		snap := s.snaps[set]
		lr := r.ReadIntegral - snap[0]
		lw := r.WriteIntegral - snap[1]
		s.snaps[set] = [2]float64{r.ReadIntegral, r.WriteIntegral}
		res := SetScan{
			Set:            set,
			ExpectedReads:  lr,
			ExpectedWrites: lw,
			FracAccessed:   1 - math.Exp(-(lr + lw)),
			FracDirty:      1 - math.Exp(-lw),
		}
		out = append(out, res)
	}
	s.out = out
	scanned := s.m.AS.TotalBytes() / s.Granularity
	s.m.StallAll(s.Model.ShootdownStall(int(scanned)))
	return out
}
