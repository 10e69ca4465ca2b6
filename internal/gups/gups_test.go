package gups_test

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/xmem"
)

func newGUPS(cfg gups.Config) (*machine.Machine, *gups.GUPS) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	g := gups.New(m, cfg)
	return m, g
}

func TestDefaults(t *testing.T) {
	_, g := newGUPS(gups.Config{WorkingSet: 8 * sim.GB})
	if g.Threads() != 16 {
		t.Fatalf("default threads = %d, want 16", g.Threads())
	}
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("uniform GUPS should have 1 component, got %d", len(comps))
	}
	if comps[0].Share != 1 || comps[0].ReadBytes != 8 || comps[0].WriteBytes != 8 {
		t.Fatalf("uniform component wrong: %+v", comps[0])
	}
}

func TestHotColdDecomposition(t *testing.T) {
	m, g := newGUPS(gups.Config{WorkingSet: 64 * sim.GB, HotSet: 16 * sim.GB, Seed: 1})
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	// Shares sum to 1 and are disjoint-set weighted: hot gets 0.9 plus
	// its share of the uniform 10%.
	total := comps[0].Share + comps[1].Share
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	wantHot := 0.9 + 0.1*16.0/64.0
	if comps[0].Share < wantHot-0.001 || comps[0].Share > wantHot+0.001 {
		t.Fatalf("hot share = %v, want %v", comps[0].Share, wantHot)
	}
	// Page sets are disjoint and cover the region.
	if g.HotPages().Len()+comps[1].Set.Len() != g.Region().NumPages() {
		t.Fatal("hot+cold do not partition the region")
	}
	_ = m
}

// A shift moves pages between the hot and cold sets without changing
// their sizes; a non-positive shift, of any size, changes nothing.
func TestShiftHotSet(t *testing.T) {
	m, g := newGUPS(gups.Config{WorkingSet: 8 * sim.GB, HotSet: 1 * sim.GB, Seed: 1})
	hot := g.HotPages()
	before := slices.Clone(hot.IDs())
	for _, b := range []int64{0, -1, -4 * sim.MB, math.MinInt64} {
		g.ShiftHotSet(b, 1)
		if !slices.Equal(hot.IDs(), before) {
			t.Fatalf("ShiftHotSet(%d) changed the hot set", b)
		}
	}
	g.ShiftHotSet(4*sim.MB, 1)
	if hot.Len() != len(before) {
		t.Fatalf("hot set holds %d pages after a shift, want %d", hot.Len(), len(before))
	}
	moved := 0
	for _, id := range before {
		if m.AS.SetOf(m.AS.Page(id)) != hot {
			moved++
		}
	}
	if moved != 2 {
		t.Fatalf("a 4 MB shift moved %d pages out of the hot set, want 2", moved)
	}
}

func TestScoreWindow(t *testing.T) {
	m, g := newGUPS(gups.Config{WorkingSet: 8 * sim.GB})
	m.Warm()
	m.Run(sim.Second)
	first := g.Score()
	if first <= 0 {
		t.Fatal("score not positive")
	}
	g.ResetScore()
	m.Run(sim.Second)
	second := g.Score()
	// Steady workload: windows should agree closely.
	if second < first*0.9 || second > first*1.1 {
		t.Fatalf("windows disagree: %v vs %v", first, second)
	}
}

func TestHotSetSeedsDiffer(t *testing.T) {
	_, a := newGUPS(gups.Config{WorkingSet: 16 * sim.GB, HotSet: 4 * sim.GB, Seed: 1})
	_, b := newGUPS(gups.Config{WorkingSet: 16 * sim.GB, HotSet: 4 * sim.GB, Seed: 2})
	same := 0
	inB := map[int]bool{}
	for _, id := range b.HotPages().IDs() {
		inB[b.Region().Index(id)] = true
	}
	for _, id := range a.HotPages().IDs() {
		if inB[a.Region().Index(id)] {
			same++
		}
	}
	if same == a.HotPages().Len() {
		t.Fatal("different seeds produced identical hot sets")
	}
}

// rejects fails unless cfg fails Validate with a message containing
// want, and gups.New panics with that message without mapping anything.
func rejects(t *testing.T, cfg gups.Config, want string) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	err := cfg.Validate(m.Cfg.PageSize)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate(%+v) = %v, want an error mentioning %q", cfg, err, want)
	}
	defer func() {
		if r := recover(); r != err.Error() {
			t.Fatalf("New panicked with %v, want %q", r, err)
		}
		if n := len(m.AS.Regions); n != 0 {
			t.Fatalf("refused New mapped %d regions", n)
		}
	}()
	gups.New(m, cfg)
}

func TestValidateRejectsNegativeThreads(t *testing.T) {
	rejects(t, gups.Config{Threads: -4, WorkingSet: 8 * sim.GB}, "Threads")
}

func TestValidateRejectsHotSetOverWorkingSet(t *testing.T) {
	rejects(t, gups.Config{WorkingSet: 8 * sim.GB, HotSet: 9 * sim.GB}, "HotSet")
}

func TestValidateRejectsEmptyWorkingSet(t *testing.T) {
	rejects(t, gups.Config{}, "WorkingSet")
	rejects(t, gups.Config{WorkingSet: -sim.GB}, "WorkingSet")
}

func TestValidateRejectsPageIDOverflow(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	ps := m.Cfg.PageSize
	ok := gups.Config{WorkingSet: math.MaxInt32 * ps}
	if err := ok.Validate(ps); err != nil {
		t.Fatalf("MaxInt32 pages rejected: %v", err)
	}
	rejects(t, gups.Config{WorkingSet: math.MaxInt32*ps + 1}, "page")
}

// Zero fields mean defaults, so a config naming only its working set,
// and every boundary value, is valid.
func TestValidateAcceptsDefaultsAndBounds(t *testing.T) {
	for _, c := range []gups.Config{
		{WorkingSet: 1},
		{WorkingSet: 8 * sim.GB, HotSet: 8 * sim.GB},
		{WorkingSet: 8 * sim.GB, HotSet: 1 * sim.GB, WriteOnlyHot: 1 * sim.GB},
	} {
		if err := c.Validate(2 * sim.MB); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
}

// Set-up allocates only what the workload keeps: the working set's page
// chunks (256 bytes per 32 pages, which the allocator serves with no
// header or slack) and one 4-byte member ID per page in its sets, cut
// from one shuffled array (here including the write-only sub-split):
// about 12 bytes per page. A construction that copies the IDs into
// intermediate slices, allocates an index permutation, keeps page
// pointers as set members, or widens the page passes 14 bytes per page.
func TestNewSetUpAllocation(t *testing.T) {
	m := machine.New(machine.DefaultConfig(), xmem.DRAMFirst())
	cfg := gups.Config{WorkingSet: 8 * sim.GB, HotSet: 1 * sim.GB, WriteOnlyHot: 256 * sim.MB, Seed: 3}
	pages := cfg.WorkingSet / m.Cfg.PageSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := gups.New(m, cfg)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(14*pages) + 32<<10; got > limit {
		t.Fatalf("New allocated %d bytes for %d pages (%.1f per page), want ≤ %d",
			got, pages, float64(got)/float64(pages), limit)
	}
	t.Logf("New allocated %d bytes for %d pages (%.1f per page)", got, pages, float64(got)/float64(pages))
	if n := g.HotPages().Len(); n != int(pages)/8-128 {
		t.Fatalf("read hot set holds %d pages, want %d", n, pages/8-128)
	}
}
