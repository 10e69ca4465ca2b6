package mem

import (
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// BuiltinSpec returns the calibrated spec of built-in tier t (DRAM, NVM,
// Disk or CXL) at the given capacity. Any other tier has no built-in
// model, and reports false: its machine tier table row must carry a Spec.
func BuiltinSpec(t vm.TierID, capacity int64) (Spec, bool) {
	switch t {
	case vm.TierDRAM:
		return DRAMSpec(capacity), true
	case vm.TierNVM:
		return NVMSpec(capacity), true
	case vm.TierDisk:
		return DiskSpec(capacity), true
	case vm.TierCXL:
		return CXLSpec(capacity), true
	}
	return Spec{}, false
}

// CXLSpec returns a calibrated CXL-attached DRAM expander: DDR behind a
// CXL 2.0 x8 link. Load-to-use latency sits between local DRAM and
// Optane (~210 ns, the extra ~130 ns being link + controller traversal,
// consistent with published Pond/TPP measurements), bandwidth is
// link-limited and — unlike Optane — symmetric between reads and writes,
// and the media is ordinary DRAM with 64 B granularity and no wear
// asymmetry.
func CXLSpec(capacity int64) Spec {
	return Spec{
		Name:             "CXL",
		Capacity:         capacity,
		ReadLatency:      210,
		WriteLatency:     210,
		SeqOverhead:      12,
		Stream:           [2]float64{sim.GBps(9.0), sim.GBps(8.5)},
		StreamRand:       [2]float64{sim.GBps(4.5), sim.GBps(4.5)},
		Peak:             [2][2]float64{{sim.GBps(26), sim.GBps(16)}, {sim.GBps(24), sim.GBps(15)}},
		MediaGranularity: 64,
	}
}

// NewCXL returns a calibrated CXL memory device of the given capacity.
func NewCXL(capacity int64) *Device { return New(CXLSpec(capacity)) }
