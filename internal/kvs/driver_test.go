package kvs_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// runKVS measures steady-state throughput in Mops/s.
func runKVS(mgr machine.Manager, ws int64, warm, measure int64) (*kvs.Driver, *machine.Machine) {
	m := machine.New(machine.DefaultConfig(), mgr)
	d := kvs.NewDriver(m, kvs.DriverConfig{
		WorkingSet: ws, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 17,
	})
	m.Warm()
	m.Run(warm)
	d.ResetScore()
	m.Run(measure)
	return d, m
}

// Table 3, small working sets: all systems perform similarly when
// everything fits in DRAM, at around 1 Mops/s for 8 server threads.
func TestThroughputSmallWorkingSet(t *testing.T) {
	he, _ := runKVS(core.New(core.DefaultConfig()), 16*sim.GB, 5*sim.Second, 5*sim.Second)
	mm, _ := runKVS(memmode.New(), 16*sim.GB, 5*sim.Second, 5*sim.Second)
	if he.Mops() < 0.5 || he.Mops() > 2 {
		t.Errorf("HeMem 16GB throughput = %.2f Mops, want ~1", he.Mops())
	}
	ratio := he.Mops() / mm.Mops()
	if ratio < 0.9 || ratio > 1.3 {
		t.Errorf("HeMem/MM at 16GB = %.2f, want ≈1 (paper: 1.09 vs 1.14)", ratio)
	}
}

// Table 3, 700 GB working set: the 140 GB hot set still fits in DRAM, so
// HeMem beats MM (paper: +14%), Nimble (+15%), and static NVM placement
// (X-Mem, −18% vs HeMem).
func TestThroughput700GB(t *testing.T) {
	const warm, measure = 300 * sim.Second, 60 * sim.Second
	he, _ := runKVS(core.New(core.DefaultConfig()), 700*sim.GB, warm, measure)
	mm, _ := runKVS(memmode.New(), 700*sim.GB, warm, measure)
	nvm, _ := runKVS(xmem.NVMOnly(), 700*sim.GB, warm, measure)

	if he.Mops() <= mm.Mops() {
		t.Errorf("700GB: HeMem %.3f should beat MM %.3f (paper: 1.06 vs 0.93)", he.Mops(), mm.Mops())
	}
	if he.Mops() <= nvm.Mops() {
		t.Errorf("700GB: HeMem %.3f should beat NVM placement %.3f", he.Mops(), nvm.Mops())
	}
	// HeMem got the hot items into DRAM.
	if f := he.HotItemPages().Frac(vm.TierDRAM); f < 0.7 {
		t.Errorf("hot items DRAM fraction = %.2f", f)
	}
}

// Table 3 latency columns: at 30% load on the 700 GB working set, HeMem's
// median and tail are below MM's (paper: p50 20 vs 35 µs, p99 34 vs 53).
func TestLatencyAt30PercentLoad(t *testing.T) {
	measureLat := func(mgr machine.Manager) *sim.Histogram {
		m := machine.New(machine.DefaultConfig(), mgr)
		d := kvs.NewDriver(m, kvs.DriverConfig{
			WorkingSet: 700 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9,
			NetBase: kvs.NetBaseTAS, Seed: 17,
		})
		m.Warm()
		// Converge placement closed-loop, then measure at 30% load.
		m.Run(300 * sim.Second)
		d.SetTargetRate(0.3 * 8 / (10 * 1000))
		m.Run(10 * sim.Second)
		d.ResetScore()
		m.Run(30 * sim.Second)
		return d.Latency()
	}
	he := measureLat(core.New(core.DefaultConfig()))
	mm := measureLat(memmode.New())
	if he.Count() == 0 || mm.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if he.Quantile(0.5) >= mm.Quantile(0.5) {
		t.Errorf("p50: HeMem %.0f ns should beat MM %.0f ns", he.Quantile(0.5), mm.Quantile(0.5))
	}
	// p90 and p99 sit inside the cold-GET NVM branch for both systems at
	// this model's resolution; HeMem must not be worse there (the paper's
	// residual gap comes from finer queueing effects).
	if he.Quantile(0.9) > mm.Quantile(0.9) {
		t.Errorf("p90: HeMem %.0f ns worse than MM %.0f ns", he.Quantile(0.9), mm.Quantile(0.9))
	}
	if he.Quantile(0.99) > mm.Quantile(0.99) {
		t.Errorf("p99: HeMem %.0f ns worse than MM %.0f ns", he.Quantile(0.99), mm.Quantile(0.99))
	}
}

// Table 4: a pinned priority instance under HeMem gets better latency than
// under MM, where the regular instance's bulk traffic pollutes the cache.
func TestPriorityIsolation(t *testing.T) {
	runPair := func(mgr machine.Manager, pin func(*kvs.Driver)) (prio *sim.Histogram) {
		m := machine.New(machine.DefaultConfig(), mgr)
		prioD := kvs.NewDriver(m, kvs.DriverConfig{
			Name: "priority", WorkingSet: 16 * sim.GB, ServerThreads: 4,
			NetBase: kvs.NetBaseLinux, Seed: 3,
			TargetRate: 0.5 * 4 / (26 * 1000),
		})
		kvs.NewDriver(m, kvs.DriverConfig{
			Name: "regular", WorkingSet: 500 * sim.GB, ServerThreads: 8,
			NetBase: kvs.NetBaseLinux, Seed: 4,
		})
		if pin != nil {
			pin(prioD)
		}
		m.Warm()
		m.Run(60 * sim.Second)
		prioD.ResetScore()
		m.Run(20 * sim.Second)
		return prioD.Latency()
	}

	heMgr := core.New(core.DefaultConfig())
	hePrio := runPair(heMgr, func(d *kvs.Driver) {
		heMgr.PinRegion(d.LogRegion())
		heMgr.PinRegion(d.TableRegion())
	})
	mmPrio := runPair(memmode.New(), nil)

	// The abstract's headline: "16% lower tail-latency under performance
	// isolation". The pinned instance never misses to NVM under HeMem;
	// under MM the regular instance's bulk traffic evicts its lines.
	if hePrio.Quantile(0.99) >= mmPrio.Quantile(0.99) {
		t.Errorf("priority p99: HeMem %.0f ns should beat MM %.0f ns (paper: 239 vs 278 µs)",
			hePrio.Quantile(0.99), mmPrio.Quantile(0.99))
	}
	if hePrio.Quantile(0.5) > mmPrio.Quantile(0.5) {
		t.Errorf("priority p50: HeMem %.0f ns worse than MM %.0f ns",
			hePrio.Quantile(0.5), mmPrio.Quantile(0.5))
	}
}

// Pinned regions stay wholly in DRAM under HeMem.
func TestPinRegionKeepsDRAM(t *testing.T) {
	h := core.New(core.DefaultConfig())
	m := machine.New(machine.DefaultConfig(), h)
	d := kvs.NewDriver(m, kvs.DriverConfig{Name: "prio", WorkingSet: 16 * sim.GB, Seed: 1})
	kvs.NewDriver(m, kvs.DriverConfig{Name: "bulk", WorkingSet: 400 * sim.GB, Seed: 2})
	h.PinRegion(d.LogRegion())
	h.PinRegion(d.TableRegion())
	m.Warm()
	m.Run(30 * sim.Second)
	if f := d.LogRegion().Frac(vm.TierDRAM); f != 1 {
		t.Fatalf("pinned log region DRAM frac = %v, want 1", f)
	}
}

// rejects fails unless cfg fails Validate with a message containing
// want, and NewDriver panics with that message without mapping anything.
func rejects(t *testing.T, cfg kvs.DriverConfig, want string) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	err := cfg.Validate(m.Cfg.PageSize)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate(%+v) = %v, want an error mentioning %q", cfg, err, want)
	}
	defer func() {
		if r := recover(); r != err.Error() {
			t.Fatalf("NewDriver panicked with %v, want %q", r, err)
		}
		if n := len(m.AS.Regions); n != 0 {
			t.Fatalf("refused NewDriver mapped %d regions", n)
		}
	}()
	kvs.NewDriver(m, cfg)
}

func TestValidateRejectsEmptyWorkingSet(t *testing.T) {
	rejects(t, kvs.DriverConfig{}, "WorkingSet")
	rejects(t, kvs.DriverConfig{WorkingSet: -sim.GB}, "WorkingSet")
}

func TestValidateRejectsHotKeyFracOutsideUnit(t *testing.T) {
	for _, f := range []float64{1.5, -0.2, math.NaN()} {
		rejects(t, kvs.DriverConfig{WorkingSet: 8 * sim.GB, HotKeyFrac: f, HotTrafficFrac: 0.9}, "HotKeyFrac")
	}
}

func TestValidateRejectsHotTrafficFracOutsideUnit(t *testing.T) {
	for _, f := range []float64{2, -0.1, math.NaN()} {
		rejects(t, kvs.DriverConfig{WorkingSet: 8 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: f}, "HotTrafficFrac")
	}
}

func TestValidateRejectsNegativeServerThreads(t *testing.T) {
	rejects(t, kvs.DriverConfig{WorkingSet: 8 * sim.GB, ServerThreads: -8}, "ServerThreads")
}

func TestValidateRejectsNegativeNetBase(t *testing.T) {
	rejects(t, kvs.DriverConfig{WorkingSet: 8 * sim.GB, NetBase: -1}, "NetBase")
}

func TestValidateRejectsBadTargetRate(t *testing.T) {
	for _, r := range []float64{-1, math.NaN()} {
		rejects(t, kvs.DriverConfig{WorkingSet: 8 * sim.GB, TargetRate: r}, "TargetRate")
	}
}

// The log and the hash table count together against the PageID limit: a
// log of exactly math.MaxInt32 pages leaves no room for the table.
func TestValidateRejectsPageIDOverflow(t *testing.T) {
	rejects(t, kvs.DriverConfig{WorkingSet: math.MaxInt32 * 2 * sim.MB}, "PageID")
}

// Zero fields mean defaults, so a config naming only its working set,
// and every boundary value, is valid.
func TestValidateAcceptsDefaultsAndBounds(t *testing.T) {
	for _, c := range []kvs.DriverConfig{
		{WorkingSet: 1},
		{WorkingSet: 8 * sim.GB, HotKeyFrac: 1, HotTrafficFrac: 1},
		{WorkingSet: 8 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, TargetRate: 1e-3, NetBase: kvs.NetBaseLinux},
	} {
		if err := c.Validate(2 * sim.MB); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
}

// Set-up allocates only what the driver keeps: the log's page chunks
// (256 bytes per 32 pages, which the allocator serves with no header or
// slack) and one 4-byte member ID per page in its hot/cold sets, cut from
// one shuffled array: about 12 bytes per page. A construction that copies
// the IDs into intermediate slices, allocates an index permutation, keeps
// page pointers as set members, or widens the page passes 14 bytes per
// page.
func TestNewDriverSetUpAllocation(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	cfg := kvs.DriverConfig{WorkingSet: 8 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 3}
	pages := cfg.WorkingSet / m.Cfg.PageSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := kvs.NewDriver(m, cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(14*pages) + 32<<10; got > limit {
		t.Fatalf("NewDriver allocated %d bytes for %d log pages (%.1f per page), want ≤ %d",
			got, pages, float64(got)/float64(pages), limit)
	}
	t.Logf("NewDriver allocated %d bytes for %d log pages (%.1f per page)", got, pages, float64(got)/float64(pages))
	if n := d.HotItemPages().Len(); n != int(pages)/5 {
		t.Fatalf("hot set holds %d pages, want %d", n, pages/5)
	}
}
