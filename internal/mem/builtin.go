package mem

import (
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// BuiltinTier is one row of the built-in tier table.
type BuiltinTier struct {
	// Spec builds the tier's calibrated device spec at a capacity.
	Spec func(capacity int64) Spec
	// DefaultCapacity is the capacity a machine tier row that leaves its
	// Capacity zero falls back to; zero means the tier has none, so the
	// row must set one.
	DefaultCapacity int64
}

// builtinTiers describes every tier of the fixed set, indexed by TierID
// (TierNone's row is empty). The default capacities are one socket of
// the paper's testbed (192 GB DRAM, 768 GB Optane) plus a swap disk
// (§3.4); the CXL expander has no default.
var builtinTiers = [...]BuiltinTier{
	vm.TierDRAM: {DRAMSpec, 192 * sim.GB},
	vm.TierNVM:  {NVMSpec, 768 * sim.GB},
	vm.TierDisk: {DiskSpec, 4 * sim.TB},
	vm.TierCXL:  {CXLSpec, 0},
}

// Builtin returns tier t's row of the built-in tier table; ok is false
// for TierNone and any ID outside the tier set.
func Builtin(t vm.TierID) (BuiltinTier, bool) {
	if t < 0 || int(t) >= len(builtinTiers) || builtinTiers[t].Spec == nil {
		return BuiltinTier{}, false
	}
	return builtinTiers[t], true
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
