package gap_test

import (
	"math"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// runBC runs shortened BC iterations under mgr and returns the driver and
// machine.
func runBC(t *testing.T, mgr machine.Manager, scale, iters int) (*gap.Driver, *machine.Machine) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), mgr)
	d := gap.NewDriver(m, gap.DriverConfig{
		Scale: scale, Iterations: iters, EdgeVisitScale: 0.05, Seed: 2,
	})
	m.Warm()
	m.RunUntilDone(3000 * sim.Second)
	if d.Iterations() != iters {
		t.Fatalf("%s: completed %d/%d iterations", mgr.Name(), d.Iterations(), iters)
	}
	return d, m
}

func meanNs(ts []int64) float64 {
	var s int64
	for _, t := range ts {
		s += t
	}
	return float64(s) / float64(len(ts))
}

// Figure 14 (2^28 vertices, fits DRAM): HeMem ≈ DRAM-only; MM suffers
// badly (paper: HeMem 93% faster on average); Nimble lands between,
// beating MM (paper: +32% over MM) but trailing HeMem.
func TestFig14RelativeOrder(t *testing.T) {
	const scale, iters = 28, 6
	dram, _ := runBC(t, xmem.DRAMFirst(), scale, iters)
	hemem, _ := runBC(t, core.New(core.DefaultConfig()), scale, iters)
	nb, _ := runBC(t, ptscan.Nimble(), scale, iters)
	mm, _ := runBC(t, memmode.New(), scale, iters)

	tD := meanNs(dram.IterationTimes())
	tH := meanNs(hemem.IterationTimes())
	tN := meanNs(nb.IterationTimes())
	tM := meanNs(mm.IterationTimes())

	if tH > tD*1.1 {
		t.Errorf("HeMem (%.1fs) should match DRAM-only (%.1fs)", tH/1e9, tD/1e9)
	}
	if tM < tH*1.5 {
		t.Errorf("MM (%.1fs) should be well above HeMem (%.1fs); paper: +93%%", tM/1e9, tH/1e9)
	}
	if tN <= tH || tN >= tM {
		t.Errorf("Nimble (%.1fs) should sit between HeMem (%.1fs) and MM (%.1fs)", tN/1e9, tH/1e9, tM/1e9)
	}
}

// Figure 15 (2^29 vertices, exceeds DRAM): HeMem fastest; Nimble +36%-ish;
// MM slowest; PT-Async starts slower and converges.
func TestFig15RelativeOrder(t *testing.T) {
	const scale, iters = 29, 6
	hemem, _ := runBC(t, core.New(core.DefaultConfig()), scale, iters)
	pt, _ := runBC(t, ptscan.HeMemPTAsync(), scale, iters)
	nb, _ := runBC(t, ptscan.Nimble(), scale, iters)
	mm, _ := runBC(t, memmode.New(), scale, iters)

	tH := meanNs(hemem.IterationTimes())
	tP := meanNs(pt.IterationTimes())
	tN := meanNs(nb.IterationTimes())
	tM := meanNs(mm.IterationTimes())

	if tN <= tH {
		t.Errorf("Nimble (%.1fs) should trail HeMem (%.1fs); paper: +36%%", tN/1e9, tH/1e9)
	}
	if tM <= tN {
		t.Errorf("MM (%.1fs) should be slowest (Nimble %.1fs); paper: HeMem +58%% over MM", tM/1e9, tN/1e9)
	}
	if tP <= tH {
		t.Errorf("PT-Async (%.1fs) should trail HeMem (%.1fs)", tP/1e9, tH/1e9)
	}
	// PT-Async's first iteration is its worst (extra migrations while it
	// identifies the hot graph parts, §5.2.3).
	ts := pt.IterationTimes()
	if ts[0] < ts[len(ts)-1] {
		t.Errorf("PT-Async first iteration (%.1fs) should be ≥ last (%.1fs)",
			float64(ts[0])/1e9, float64(ts[len(ts)-1])/1e9)
	}
}

// Figure 16: NVM writes per BC iteration on 2^29. MM writes NVM constantly
// (dirty-line evictions); HeMem identifies the write-hot vertices and
// makes ~10× fewer writes.
func TestFig16NVMWear(t *testing.T) {
	const scale, iters = 29, 6
	hemem, _ := runBC(t, core.New(core.DefaultConfig()), scale, iters)
	mm, _ := runBC(t, memmode.New(), scale, iters)

	hw := hemem.IterationNVMWrites()
	mw := mm.IterationNVMWrites()
	last := len(hw) - 1
	if mw[last] < 5*hw[last] {
		t.Errorf("steady-state NVM writes: MM %.1fGB vs HeMem %.1fGB, want ~10×",
			mw[last]/float64(sim.GB), hw[last]/float64(sim.GB))
	}
	// MM's writes are roughly constant across iterations.
	if mw[last] < mw[0]*0.8 || mw[last] > mw[0]*1.2 {
		t.Errorf("MM wear should be constant: %.1f → %.1f GB", mw[0]/float64(sim.GB), mw[last]/float64(sim.GB))
	}
}

// HeMem keeps the write-hot hub vertices in DRAM at 2^29.
func TestHubVerticesMigrateToDRAM(t *testing.T) {
	d, _ := runBC(t, core.New(core.DefaultConfig()), 29, 6)
	if f := d.HotVertexPages().Frac(vm.TierDRAM); f < 0.9 {
		t.Errorf("hub vertex pages DRAM fraction = %.2f", f)
	}
}

// The whole graph in NVM is far slower than any tiering system (the paper
// omits it from the figure at 16–17× worse).
func TestNVMOnlyFarWorse(t *testing.T) {
	const scale, iters = 28, 3
	hemem, _ := runBC(t, core.New(core.DefaultConfig()), scale, iters)
	nvm, _ := runBC(t, xmem.NVMOnly(), scale, iters)
	tH := meanNs(hemem.IterationTimes())
	tN := meanNs(nvm.IterationTimes())
	if tN < tH*3 {
		t.Errorf("NVM-only (%.1fs) should be ≫ HeMem (%.1fs); paper: 16×", tN/1e9, tH/1e9)
	}
}

// rejects fails unless cfg fails Validate with a message containing
// want, and NewDriver panics with that message without mapping anything,
// on a machine of the default page size.
func rejects(t *testing.T, cfg gap.DriverConfig, want string) {
	t.Helper()
	rejectsAt(t, machine.DefaultConfig().PageSize, cfg, want)
}

// rejectsAt is rejects on a machine of pageSize-byte pages.
func rejectsAt(t *testing.T, pageSize int64, cfg gap.DriverConfig, want string) {
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
	gap.NewDriver(m, cfg)
}

func TestValidateRejectsBadEdgeVisitScale(t *testing.T) {
	for _, v := range []float64{-1, 1.5, math.NaN()} {
		rejects(t, gap.DriverConfig{Scale: 20, EdgeVisitScale: v}, "EdgeVisitScale")
	}
}

func TestValidateRejectsNegativeIterations(t *testing.T) {
	rejects(t, gap.DriverConfig{Scale: 20, Iterations: -2}, "Iterations")
}

func TestValidateRejectsBadShape(t *testing.T) {
	rejects(t, gap.DriverConfig{Scale: -1}, "Scale")
	rejects(t, gap.DriverConfig{Scale: gap.MaxScale + 1}, "Scale")
}

// A graph of more pages than PageIDs can number is refused: 2^36
// vertices fit 2 MB pages but not 4 KB ones.
func TestValidateRejectsPageIDOverflow(t *testing.T) {
	if err := (gap.DriverConfig{Scale: 36}).Validate(2 * sim.MB); err != nil {
		t.Fatalf("2^36 vertices in 2 MB pages rejected: %v", err)
	}
	rejectsAt(t, 4*sim.KB, gap.DriverConfig{Scale: 36}, "PageID")
}

// Zero fields mean defaults, and every boundary value is valid.
func TestValidateAcceptsDefaultsAndBounds(t *testing.T) {
	for _, c := range []gap.DriverConfig{
		{},
		{Scale: gap.MaxScale, EdgeVisitScale: 1},
		{Scale: 28, Iterations: 15, EdgeVisitScale: 0.05, Seed: 2},
	} {
		if err := c.Validate(2 * sim.MB); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
}
