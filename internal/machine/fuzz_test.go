package machine_test

import (
	"fmt"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/diurnal"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/tpcc"
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
// keeps. The seed corpus is testdata/fuzz/FuzzMachineConfig. The second
// input, once the machine quantum in milliseconds, is unused: the
// quantum is the constant machine.Quantum. So are the ten inputs that
// once set the migration retry policy and the episode durations and
// severities, which are constants of the fault package and the migrator.
func FuzzMachineConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, tiers []byte, _ int64,
		abortProb float64, _ int, _, dmaMTBF, dmaDegMTBF int32, _ float64,
		ueMTBF, thermMTBF int32, _ float64, stormMTBF, _ int32, _ float64,
		compMTBF, _, offMTBF, offDur int32, offTier uint8, ceMTBF, ceDur, ceIntervalUS int32, ceThresh int,
		_, _, _ int32,
	) {
		ms := func(v int32) int64 { return int64(v) * sim.Millisecond }
		cfg := machine.DefaultConfig()
		cfg.Audit = true
		cfg.Tiers = fuzzTiers(tiers)
		cfg.Faults = fault.Config{
			MigrationAbortProb:   abortProb,
			DMAChannelMTBF:       ms(dmaMTBF),
			DMADegradedMTBF:      ms(dmaDegMTBF),
			NVMUncorrectableMTBF: ms(ueMTBF),
			NVMThermalMTBF:       ms(thermMTBF),
			PEBSStormMTBF:        ms(stormMTBF),
			Chaos: fault.ChaosConfig{
				CompoundMTBF:        ms(compMTBF),
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

// fuzzPhases decodes a diurnal schedule from three bytes per phase, at
// most 64 phases: a signed duration in milliseconds and the window's
// bounds in hundredths, signed, so out-of-range windows occur.
func fuzzPhases(b []byte) []diurnal.Phase {
	var phases []diurnal.Phase
	for ; len(b) >= 3 && len(phases) < 64; b = b[3:] {
		phases = append(phases, diurnal.Phase{
			Duration: int64(int8(b[0])) * sim.Millisecond,
			WindowLo: float64(int8(b[1])) / 100,
			WindowHi: float64(int8(b[2])) / 100,
		})
	}
	return phases
}

// FuzzWorkloadConfig drives the five workload drivers' configs (kind mod
// 5: GUPS, FlexKVS, TPC-C, GAP BC, diurnal) with arbitrary values, under
// HeMem or Memory Mode on a 1 GB-DRAM testbed. Every input must either
// fail the config's Validate or run a short audited workload to the end:
// a config Validate accepts must never panic in the driver or the run.
// Sizes are fuzzed in coarse units (MiB) and a few fields are narrowed so
// that an accepted input stays a short run in little memory: GAP's Scale
// mod 24 and Seed mod 4 (the calibration graph is built in memory and
// cached for the process per seed), TPC-C's warehouse count to int8.
// Validate's bounds past those ranges are the drivers' TestValidate
// cases. The tenth input, once TPC-C's row counts and GAP's calibration
// scale, is unused.
func FuzzWorkloadConfig(f *testing.F) {
	f.Add(uint8(0), false, int8(4), int16(512), int16(128), int16(8), int16(0), int16(0), int16(0), 0.9, 0.0, 0.0, 0.0, uint64(1), []byte(nil))
	f.Add(uint8(1), true, int8(8), int16(2048), int16(0), int16(4096), int16(8), int16(0), int16(0), 0.9, 0.2, 0.9, 0.0, uint64(1), []byte(nil))
	f.Add(uint8(2), false, int8(4), int16(0), int16(0), int16(4), int16(1024), int16(0), int16(0), 0.0, 0.0, 0.0, 0.0, uint64(1), []byte(nil))
	f.Add(uint8(3), false, int8(4), int16(0), int16(0), int16(18), int16(0), int16(1), int16(8), 0.01, 0.0, 0.0, 0.0, uint64(1), []byte(nil))
	f.Add(uint8(4), false, int8(4), int16(1024), int16(0), int16(64), int16(0), int16(0), int16(0), 0.0, 0.0, 0.0, 0.0, uint64(1),
		[]byte{20, 0, 0, 30, 10, 30, 20, 0, 0, 30, 10, 30})
	f.Add(uint8(4), false, int8(0), int16(64), int16(0), int16(0), int16(0), int16(0), int16(0), 0.0, 0.0, 0.0, 0.0, uint64(0),
		[]byte{10, 0, 50, 10, 40, 90})
	f.Fuzz(func(t *testing.T, kind uint8, memMode bool, threads int8, size, hot, a, b, c, _ int16,
		f1, f2, f3, f4 float64, seed uint64, phases []byte,
	) {
		mb := func(v int16) int64 { return int64(v) * sim.MB }
		cfg := machine.DefaultConfig()
		cfg.Audit = true
		cfg.Tiers = machine.ClassicTiers(1*sim.GB, 0, 0)
		ps := cfg.PageSize
		var start func(m *machine.Machine)
		var err error
		switch kind % 5 {
		case 0:
			gc := gups.Config{Threads: int(threads), WorkingSet: mb(size), HotSet: mb(hot),
				WriteOnlyHot: mb(b), Seed: seed}
			err = gc.Validate(ps)
			start = func(m *machine.Machine) { gups.New(m, gc); m.Warm() }
		case 1:
			kc := kvs.DriverConfig{ServerThreads: int(threads), WorkingSet: mb(size),
				HotKeyFrac: f2, HotTrafficFrac: f3, NetBase: int64(b) * sim.Microsecond,
				TargetRate: f4, Seed: seed}
			err = kc.Validate(ps)
			start = func(m *machine.Machine) { kvs.NewDriver(m, kc); m.Warm() }
		case 2:
			tc := tpcc.DriverConfig{Warehouses: int(int8(a)), Seed: seed}
			err = tc.Validate(ps)
			start = func(m *machine.Machine) { tpcc.NewDriver(m, tc); m.Warm() }
		case 3:
			gcfg := gap.DriverConfig{Scale: int(a % 24), Iterations: int(int8(c)), EdgeVisitScale: f1, Seed: seed % 4}
			err = gcfg.Validate(ps)
			start = func(m *machine.Machine) { gap.NewDriver(m, gcfg); m.Warm() }
		case 4:
			dc := diurnal.Config{WorkingSet: mb(size), Threads: int(threads), Phases: fuzzPhases(phases)}
			err = dc.Validate(ps)
			start = func(m *machine.Machine) { diurnal.New(m, dc) }
		}
		if err != nil {
			return
		}
		var mgr machine.Manager = core.New(core.DefaultConfig())
		if memMode {
			mgr = memmode.New()
		}
		m := machine.New(cfg, mgr)
		start(m)
		m.Run(200 * sim.Millisecond)
	})
}

// FuzzTenants drives the tenant runtime with an arbitrary sequence of
// admissions, departures and runs on an audited HeMem machine (256 MB
// DRAM, 4 GB NVM), five bytes per operation, at most 48 operations:
//
//   - op%3 == 0: Admit a spec of class int8(b1)%4 (negative and past the
//     last class included), a DRAM reservation of int8(b2) × 16 MB, a DRAM
//     cap of int8(b3) × 8 MB and an NVM reservation of int8(b4) × 64 MB,
//     whose app maps and faults in (b4%8 + 1) × 32 MB;
//   - op%3 == 1: Depart tenant b1 % (tenants+2), unknown ids included;
//   - op%3 == 2: run b1%16 quanta.
//
// Every spec either fails Admit or runs, and the machine then runs out
// its departures: nothing may panic, and the auditor's tenant,
// reservation and ledger rules must hold after every quantum.
func FuzzTenants(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 1, 2, 5, 0, 0, 0, 0, 1, 8, 8, 0, 1, 1, 0, 0, 0, 2, 10, 0, 0, 0, 1, 2, 0, 0, 0})
	f.Add([]byte{0, 2, 12, 0, 0, 0, 1, 10, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 2, 15, 0, 0, 0})
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0, 0xf0, 0, 0, 0, 1, 0, 0xf0, 0, 2, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := machine.DefaultConfig()
		cfg.Audit = true
		cfg.Tiers = machine.ClassicTiers(256*sim.MB, 4*sim.GB, 0)
		m := machine.New(cfg, core.New(core.DefaultConfig()))
		tr := m.EnableTenants()
		for n := 0; len(ops) >= 5 && n < 48; ops, n = ops[5:], n+1 {
			op := ops[:5]
			switch op[0] % 3 {
			case 0:
				spec := machine.TenantSpec{Name: fmt.Sprintf("t%d", n), Class: machine.QoSClass(int8(op[1]) % 4)}
				spec.Reserve[vm.TierDRAM] = int64(int8(op[2])) * 16 * sim.MB
				spec.Cap[vm.TierDRAM] = int64(int8(op[3])) * 8 * sim.MB
				spec.Reserve[vm.TierNVM] = int64(int8(op[4])) * 64 * sim.MB
				size := int64(op[4]%8+1) * 32 * sim.MB
				tr.Admit(spec, func(id vm.TenantID) machine.TenantApp { return startGrowApp(m, id, size) })
			case 1:
				tr.Depart(vm.TenantID(int(op[1]) % (tr.NumTenants() + 2)))
			case 2:
				m.Run(int64(op[1]%16) * machine.Quantum)
			}
		}
		m.Run(100 * machine.Quantum)
	})
}
