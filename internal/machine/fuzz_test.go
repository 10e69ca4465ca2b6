package machine_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// fuzzTiers decodes a tier table from three bytes per tier: the tier id,
// a signed capacity in GiB, and flag bits (1 swap, 2 UE victim). Fewer
// than three bytes mean the nil (default) table; 0xff alone means an
// empty non-nil table.
func fuzzTiers(b []byte) []machine.TierDesc {
	if len(b) == 1 && b[0] == 0xff {
		return []machine.TierDesc{}
	}
	var tiers []machine.TierDesc
	for ; len(b) >= 3; b = b[3:] {
		tiers = append(tiers, machine.TierDesc{
			ID:       vm.TierID(b[0]),
			Capacity: int64(int8(b[1])) * sim.GB,
			Swap:     b[2]&1 != 0,
			UEVictim: b[2]&2 != 0,
		})
	}
	return tiers
}

// FuzzMachineConfig drives the tier table, the fault injectors and the
// chaos scheduler with arbitrary values. Every input must either fail
// Validate or run a short audited GUPS workload under HeMem to the end:
// a configuration Validate accepts must never panic deep in a run.
// Times are fuzzed in coarse units (milliseconds, microseconds for the
// CE interval) and capacities in GiB, so an accepted input stays a
// short run; Validate checks only signs and ranges, which the scaling
// keeps. The seed corpus is testdata/fuzz/FuzzMachineConfig.
func FuzzMachineConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, tiers []byte, quantumMS int64,
		abortProb float64, maxRetries int, backoffMS, dmaMTBF, dmaDegMTBF int32, dmaDegFactor float64,
		ueMTBF, thermMTBF int32, thermFactor float64, stormMTBF, stormDur int32, stormFactor float64,
		compMTBF, compDur, offMTBF, offDur int32, offTier uint8, ceMTBF, ceDur, ceIntervalUS int32, ceThresh int,
		backoffMaxMS, dmaDegDur, thermDur int32,
	) {
		ms := func(v int32) int64 { return int64(v) * sim.Millisecond }
		cfg := machine.DefaultConfig()
		cfg.Quantum = quantumMS * sim.Millisecond
		cfg.Audit = true
		cfg.Tiers = fuzzTiers(tiers)
		cfg.Faults = fault.Config{
			MigrationAbortProb:   abortProb,
			MigrationMaxRetries:  maxRetries,
			RetryBackoff:         ms(backoffMS),
			RetryBackoffMax:      ms(backoffMaxMS),
			DMAChannelMTBF:       ms(dmaMTBF),
			DMADegradedMTBF:      ms(dmaDegMTBF),
			DMADegradedDuration:  ms(dmaDegDur),
			DMADegradedFactor:    dmaDegFactor,
			NVMUncorrectableMTBF: ms(ueMTBF),
			NVMThermalMTBF:       ms(thermMTBF),
			NVMThermalDuration:   ms(thermDur),
			NVMThermalFactor:     thermFactor,
			PEBSStormMTBF:        ms(stormMTBF),
			PEBSStormDuration:    ms(stormDur),
			PEBSStormFactor:      stormFactor,
			Chaos: fault.ChaosConfig{
				CompoundMTBF:        ms(compMTBF),
				CompoundDuration:    ms(compDur),
				TierOfflineMTBF:     ms(offMTBF),
				TierOfflineDuration: ms(offDur),
				OfflineTiers:        fault.OfflineSet(vm.TierID(offTier)),
				CEStormMTBF:         ms(ceMTBF),
				CEStormDuration:     ms(ceDur),
				CEInterval:          int64(ceIntervalUS) * sim.Microsecond,
				CERetireThreshold:   ceThresh,
			},
		}
		if cfg.Validate() != nil {
			return
		}
		m := machine.New(cfg, core.New(core.DefaultConfig()))
		gups.New(m, gups.Config{Threads: 4, WorkingSet: 512 * sim.MB, HotSet: 128 * sim.MB, Seed: 1})
		m.Warm()
		m.Run(200 * sim.Millisecond)
	})
}
