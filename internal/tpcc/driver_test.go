package tpcc_test

import (
	"math"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/tpcc"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// tps runs the simulated TPC-C workload and returns steady-state tx/s.
func tps(t *testing.T, mgr machine.Manager, warehouses int) (float64, *tpcc.Driver) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), mgr)
	d := tpcc.NewDriver(m, tpcc.DriverConfig{Warehouses: warehouses, Seed: 5})
	m.Warm()
	m.Run(120 * sim.Second)
	d.ResetScore()
	m.Run(30 * sim.Second)
	return d.TPS(), d
}

// Figure 13, small warehouse counts: everything fits in DRAM; HeMem and MM
// are close (paper: HeMem up to +13%), Nimble trails (paper: −45%), and
// placing the working set in NVM (X-Mem) is far worse (paper: 32% of
// HeMem).
func TestFig13SmallWarehouses(t *testing.T) {
	he, _ := tps(t, core.New(core.DefaultConfig()), 64)
	mm, _ := tps(t, memmode.New(), 64)
	nb, _ := tps(t, ptscan.Nimble(), 64)
	nvm, _ := tps(t, xmem.NVMOnly(), 64)

	if he < mm {
		t.Errorf("HeMem (%.0f) below MM (%.0f) at 64 warehouses", he, mm)
	}
	if he > mm*1.3 {
		t.Errorf("HeMem/MM = %.2f at 64 warehouses, want ≈1 (paper ≤1.13)", he/mm)
	}
	if nb >= he*0.85 {
		t.Errorf("Nimble (%.0f) too close to HeMem (%.0f); paper: HeMem +82%%", nb, he)
	}
	if nvm >= nb || nvm >= he/2 {
		t.Errorf("NVM placement (%.0f) should be worst by far (HeMem %.0f)", nvm, he)
	}
}

// Near DRAM capacity MM suffers conflict misses while HeMem does not.
func TestFig13NearCapacity(t *testing.T) {
	he, d := tps(t, core.New(core.DefaultConfig()), 700)
	mm, _ := tps(t, memmode.New(), 700)
	if he <= mm {
		t.Errorf("HeMem (%.0f) should beat MM (%.0f) at 700 warehouses", he, mm)
	}
	// The warehouse/district hot rows end up in DRAM.
	if f := d.HotPages().Frac(vm.TierDRAM); f < 0.7 {
		t.Errorf("hot rows DRAM fraction = %.2f", f)
	}
}

// Beyond 864 warehouses the database exceeds DRAM and every tiering system
// loses throughput; NVM-only is flat (it never used DRAM).
func TestFig13BeyondCapacity(t *testing.T) {
	heFit, _ := tps(t, core.New(core.DefaultConfig()), 864)
	heOver, _ := tps(t, core.New(core.DefaultConfig()), 1728)
	nvmFit, _ := tps(t, xmem.NVMOnly(), 864)
	nvmOver, _ := tps(t, xmem.NVMOnly(), 1728)

	if heOver >= heFit*0.8 {
		t.Errorf("HeMem did not degrade beyond DRAM: %.0f → %.0f", heFit, heOver)
	}
	if nvmOver < nvmFit*0.95 || nvmOver > nvmFit*1.05 {
		t.Errorf("NVM-only should be flat: %.0f → %.0f", nvmFit, nvmOver)
	}
	if heOver <= nvmOver {
		t.Errorf("HeMem (%.0f) should stay above NVM-only (%.0f) even beyond DRAM", heOver, nvmOver)
	}
}

// rejects fails unless cfg fails Validate with a message containing
// want, and NewDriver panics with that message without mapping anything,
// on a machine of the default page size.
func rejects(t *testing.T, cfg tpcc.DriverConfig, want string) {
	t.Helper()
	rejectsAt(t, machine.DefaultConfig().PageSize, cfg, want)
}

// rejectsAt is rejects on a machine of pageSize-byte pages.
func rejectsAt(t *testing.T, pageSize int64, cfg tpcc.DriverConfig, want string) {
	t.Helper()
	mc := machine.DefaultConfig()
	mc.PageSize = pageSize
	m := machine.New(mc, xmem.DRAMFirst())
	err := cfg.Validate(pageSize)
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
	tpcc.NewDriver(m, cfg)
}

func TestValidateRejectsNoWarehouses(t *testing.T) {
	for _, w := range []int{0, -4} {
		rejects(t, tpcc.DriverConfig{Warehouses: w}, "Warehouses")
	}
}

// A database of more pages than PageIDs can number, or of more bytes
// than an int64 counts, is refused.
func TestValidateRejectsPageIDOverflow(t *testing.T) {
	rejects(t, tpcc.DriverConfig{Warehouses: 1 << 25}, "PageID")
	rejects(t, tpcc.DriverConfig{Warehouses: int(math.MaxInt64/(222*sim.MB) + 1)}, "overflow")
}

// The hot, insert and bulk row sets take one page each at least, so a
// database of fewer than three pages is refused; three are enough. A
// warehouse is 222 MB, so that takes pages of 111 MB or more.
func TestValidateRejectsTinyDatabase(t *testing.T) {
	rejectsAt(t, 111*sim.MB, tpcc.DriverConfig{Warehouses: 1}, "2 pages")
	rejectsAt(t, 256*sim.MB, tpcc.DriverConfig{Warehouses: 1}, "1 pages")
	mc := machine.DefaultConfig()
	mc.PageSize = 74 * sim.MB
	m := machine.New(mc, xmem.DRAMFirst())
	tpcc.NewDriver(m, tpcc.DriverConfig{Warehouses: 1})
	m.Warm()
	m.Run(10 * sim.Millisecond)
}

// A config naming only its warehouses is valid.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, c := range []tpcc.DriverConfig{{Warehouses: 1}, {Warehouses: 864, Seed: 5}} {
		if err := c.Validate(2 * sim.MB); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
}
