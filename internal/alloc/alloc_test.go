package alloc_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/alloc"
	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

func setup() (*machine.Machine, *core.HeMem, *alloc.Interceptor) {
	h := core.New(core.DefaultConfig())
	m := machine.New(machine.DefaultConfig(), h)
	return m, h, alloc.New(m)
}

func TestLargeMmapIsManaged(t *testing.T) {
	m, h, i := setup()
	r := i.Mmap("heap", 4*sim.GB)
	if !h.Managed(r) {
		t.Fatal("large mmap not managed")
	}
	if r.Count(vm.TierNone) != 0 {
		t.Fatal("mmap did not fault pages in")
	}
	_ = m
}

func TestSmallMmapForwardedToKernel(t *testing.T) {
	_, h, i := setup()
	r := i.Mmap("stack", 64*sim.MB)
	if h.Managed(r) {
		t.Fatal("small mmap should be kernel-managed")
	}
	if r.Frac(vm.TierDRAM) != 1 {
		t.Fatal("small allocation not in DRAM")
	}
	mm, small, _ := i.Stats()
	if mm != 1 || small != 1 {
		t.Fatalf("stats = %d/%d", mm, small)
	}
}

// The §3.3 growth policy: an arena of small chunks is adopted once its
// cumulative size crosses 1 GB, including retroactively.
func TestArenaAdoptedAtThreshold(t *testing.T) {
	_, h, i := setup()
	a := i.NewArena("query-state")
	var first *vm.Region
	for k := 0; k < 7; k++ { // 7 × 128 MB = 896 MB — below threshold
		r := a.Grow(128 * sim.MB)
		if k == 0 {
			first = r
		}
	}
	if a.Managed() {
		t.Fatal("arena adopted below threshold")
	}
	if h.Managed(first) {
		t.Fatal("chunk managed before adoption")
	}
	last := a.Grow(128 * sim.MB) // crosses 1 GB
	if !a.Managed() {
		t.Fatal("arena not adopted at threshold")
	}
	// Retroactive adoption covers earlier chunks, and later chunks join
	// automatically.
	if !h.Managed(first) || !h.Managed(last) {
		t.Fatal("adoption did not cover all chunks")
	}
	next := a.Grow(128 * sim.MB)
	if !h.Managed(next) {
		t.Fatal("post-adoption chunk not managed")
	}
	if _, _, adopts := i.Stats(); adopts != 1 {
		t.Fatalf("adopts = %d, want 1", adopts)
	}
}

// After adoption, grown-arena pages participate in tiering: under DRAM
// pressure from a hot workload, the cold arena is demoted to NVM; an
// unadopted small allocation stays pinned in DRAM.
func TestAdoptedArenaPagesAreDemotable(t *testing.T) {
	m, _, i := setup()
	a := i.NewArena("grown")
	for k := 0; k < 10; k++ {
		a.Grow(512 * sim.MB) // 5 GB total, adopted at 1 GB
	}
	small := i.Mmap("buffers", 256*sim.MB)

	// A hot workload that wants all of DRAM: 250 GB working set with a
	// 150 GB hot set.
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 250 * sim.GB, HotSet: 150 * sim.GB, Seed: 9,
	})
	m.Warm()
	m.Run(120 * sim.Second)

	arenaPages := a.Pages()
	if arenaPages.Frac(vm.TierNVM) < 0.5 {
		t.Errorf("cold adopted arena largely still in DRAM (NVM frac %.2f)",
			arenaPages.Frac(vm.TierNVM))
	}
	if small.Frac(vm.TierDRAM) != 1 {
		t.Error("kernel-managed small allocation was demoted")
	}
	_ = g
}

// An arena has one page set: a later Pages call returns the same set,
// grown by the chunks allocated since, instead of a second set over the
// same pages.
func TestArenaPagesIsOneGrowingSet(t *testing.T) {
	m, _, i := setup()
	a := i.NewArena("buffers")
	a.Grow(64 * sim.MB)
	a.Grow(64 * sim.MB)
	s := a.Pages()
	if s.Len() != 64 || a.Pages() != s || s.Len() != 64 {
		t.Fatalf("two chunks: set of %d pages, want 64 and the same set twice", s.Len())
	}
	r := a.Grow(32 * sim.MB)
	if a.Pages() != s || s.Len() != 80 {
		t.Fatalf("after a third chunk: set of %d pages, want the same set with 80", s.Len())
	}
	for j := 0; j < r.NumPages(); j++ {
		if m.AS.SetOf(r.PageAt(j)) != s {
			t.Fatalf("page %d of the new chunk is not in the arena's set", j)
		}
	}
}
