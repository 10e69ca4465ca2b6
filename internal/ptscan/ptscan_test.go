package ptscan_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/nimble"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

func run(mgr machine.Manager, cfg gups.Config, dur int64) (float64, *machine.Machine, *gups.GUPS) {
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, cfg)
	m.Warm()
	m.Run(dur)
	return g.Score(), m, g
}

// Scanning a 512 GB working set at 4 KB granularity takes over a second
// per pass; within one pass even the cold zone is touched, so the scanner
// sees everything as accessed — the over-estimation of §5.1.
func TestScannerOverestimatesHotSet(t *testing.T) {
	mgr := ptscan.New(ptscan.HeMemPTAsync())
	_, _, g := run(mgr, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 1,
	}, 20*sim.Second)
	if mgr.Scans() == 0 {
		t.Fatal("no scan passes completed")
	}
	coldSet := g.Components()[1].Set
	e, ok := mgr.Estimate(coldSet)
	if !ok {
		t.Fatal("no estimate for cold zone")
	}
	if e.FracAccessed < 0.8 {
		t.Errorf("cold zone accessed frac = %.2f; long passes should see ~1", e.FracAccessed)
	}
	// The paper: M.Async considers up to 300 GB of 512 GB hot. Ours
	// should likewise report a hot estimate far above the real 16 GB.
	if hot := mgr.EstimatedHotBytes(); hot < 200*sim.GB {
		t.Errorf("estimated hot = %d GB, want ≫ 16 GB (paper: up to 300 GB)", hot/sim.GB)
	}
}

// Figure 8: PEBS-based HeMem beats both PT-scan variants, and async
// scanning beats the serialized scan+migrate loop.
func TestPEBSBeatsPTScan(t *testing.T) {
	cfg := gups.Config{Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 9}
	const dur = 120 * sim.Second
	pebsScore, _, _ := run(core.New(core.DefaultConfig()), cfg, dur)
	asyncScore, _, _ := run(ptscan.New(ptscan.HeMemPTAsync()), cfg, dur)
	syncScore, _, _ := run(ptscan.New(ptscan.HeMemPTSync()), cfg, dur)

	if pebsScore <= asyncScore {
		t.Errorf("PEBS (%.4f) should beat PT-Async (%.4f)", pebsScore, asyncScore)
	}
	if asyncScore < syncScore {
		t.Errorf("PT-Async (%.4f) should be ≥ PT-Sync (%.4f)", asyncScore, syncScore)
	}
	// Paper: M.Async ≈ 43% of Opt, M.Sync ≈ 18% — well below PEBS.
	if asyncScore > pebsScore*0.8 {
		t.Errorf("PT-Async (%.4f) suspiciously close to PEBS (%.4f)", asyncScore, pebsScore)
	}
}

// Figure 8's "PT Scan" bar: scanning alone (no migration) costs throughput
// via TLB shootdowns — the paper measures 18% versus PEBS sampling. Both
// configurations get the oracle placement (hot set in DRAM) so throughput
// is latency-bound and the stall is visible; with the hot set in NVM both
// would pin against the NVM write-bandwidth ceiling and hide it.
func TestScanOnlyOverhead(t *testing.T) {
	gcfg := gups.Config{Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 4}

	runWithOptPlacement := func(mk func(place func(*vm.Page) vm.Tier) machine.Manager) float64 {
		boot := machine.New(machine.DefaultConfig(), ptscan.New(ptscan.ScanOnly()))
		g := gups.New(boot, gcfg)
		hot := make(map[vm.PageID]bool)
		for _, p := range g.HotPages().Pages() {
			hot[p.ID] = true
		}
		place := func(p *vm.Page) vm.Tier {
			if hot[p.ID] {
				return vm.TierDRAM
			}
			return vm.TierNVM
		}
		mgr := mk(place)
		boot.Mgr = mgr
		mgr.Attach(boot)
		boot.Warm()
		boot.Run(30 * sim.Second)
		return g.Score()
	}

	pebsScore := runWithOptPlacement(func(place func(*vm.Page) vm.Tier) machine.Manager {
		cfg := core.DefaultConfig()
		cfg.NoMigration = true
		cfg.PlaceFunc = place
		return core.New(cfg)
	})
	scanScore := runWithOptPlacement(func(place func(*vm.Page) vm.Tier) machine.Manager {
		opt := ptscan.ScanOnly()
		opt.PlaceFunc = place
		return ptscan.New(opt)
	})
	loss := 1 - scanScore/pebsScore
	if loss < 0.05 || loss > 0.40 {
		t.Errorf("PT scanning overhead = %.0f%%, paper says ~18%%", loss*100)
	}
}

// Nimble: sequential scan+migrate on one kernel thread with copy threads.
// On the hot-set benchmark it trails both HeMem and MM-class performance
// (Figure 6: Nimble reaches only ~25% of MM even when the hot set fits).
func TestNimbleTrailsHeMem(t *testing.T) {
	cfg := gups.Config{Threads: 16, WorkingSet: 256 * sim.GB, HotSet: 16 * sim.GB, Seed: 8}
	const dur = 90 * sim.Second
	he, _, _ := run(core.New(core.DefaultConfig()), cfg, dur)
	nb, _, _ := run(nimble.New(), cfg, dur)
	if nb >= he {
		t.Errorf("Nimble (%.4f) should trail HeMem (%.4f)", nb, he)
	}
	if nb < he*0.05 {
		t.Errorf("Nimble (%.4f) implausibly bad vs HeMem (%.4f)", nb, he)
	}
}

// Nimble uses migration copy threads, which consume cores while busy.
func TestNimbleUsesCopyThreads(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), nimble.New())
	gups.New(m, gups.Config{Threads: 16, WorkingSet: 256 * sim.GB, HotSet: 16 * sim.GB, Seed: 2})
	m.Warm()
	m.Run(20 * sim.Second)
	if m.Migrator.Stats().Pages == 0 {
		t.Fatal("Nimble never migrated")
	}
	if m.Migrator.Backend().Threads() != 4 {
		t.Fatalf("Nimble backend threads = %v, want 4", m.Migrator.Backend().Threads())
	}
}

// DRAM accounting: scanning managers never over-commit DRAM.
func TestPTScanDRAMCapacity(t *testing.T) {
	for _, opt := range []ptscan.Options{ptscan.HeMemPTAsync(), ptscan.HeMemPTSync(), nimble.Options()} {
		_, m, _ := run(ptscan.New(opt), gups.Config{
			Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 5,
		}, 30*sim.Second)
		var dram int64
		for _, r := range m.AS.Regions {
			dram += r.Bytes(vm.TierDRAM)
		}
		if dram > m.CapacityOf(vm.TierDRAM) {
			t.Errorf("%s: DRAM over-committed (%d GB)", opt.Name, dram/sim.GB)
		}
	}
}

// Sync mode delays scanning behind migration ("long-running migrations may
// delay scanning and statistics gathering", §2.4): with migration kept
// busy by a shifting hot set, the sync variant completes fewer passes.
func TestSyncDelaysScanning(t *testing.T) {
	// The write-skew workload keeps migration busy: the dirty zone's key
	// dominates, so the policy continually promotes toward DRAM, and in
	// sync mode each batch delays the next scan pass.
	cfg := gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: 6,
	}
	async := ptscan.New(ptscan.HeMemPTAsync())
	run(async, cfg, 60*sim.Second)
	syncm := ptscan.New(ptscan.HeMemPTSync())
	run(syncm, cfg, 60*sim.Second)
	if syncm.Scans() >= async.Scans() {
		t.Errorf("sync scans (%d) should be < async scans (%d)", syncm.Scans(), async.Scans())
	}
}
