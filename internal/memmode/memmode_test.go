package memmode_test

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
)

// runGUPS runs uniform or hot-set GUPS under a manager and returns score
// and machine.
func runGUPS(mgr machine.Manager, cfg gups.Config, dur int64) (float64, *machine.Machine, *gups.GUPS) {
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, cfg)
	m.Warm()
	m.Run(dur)
	return g.Score(), m, g
}

// For a single uniform zone the occupancy model must match the closed form
// (1−e^{−λ})/λ.
func TestHitRateMatchesClosedForm(t *testing.T) {
	for _, wsGB := range []int64{64, 128, 256} {
		mm := memmode.New()
		_, _, g := runGUPS(mm, gups.Config{Threads: 16, WorkingSet: wsGB * sim.GB}, 500*sim.Millisecond)
		set := g.Components()[0].Set
		lambda := float64(wsGB*sim.GB/64) / float64(192*sim.GB/64)
		want := (1 - math.Exp(-lambda)) / lambda
		got := mm.HitRate(set)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("ws=%dGB: hit rate %.3f, closed form %.3f", wsGB, got, want)
		}
	}
}

// Figure 5, small working sets: MM performs like DRAM (all hits).
func TestMMMatchesDRAMWhenSmall(t *testing.T) {
	mmScore, _, _ := runGUPS(memmode.New(), gups.Config{Threads: 16, WorkingSet: 16 * sim.GB}, 2*sim.Second)
	heScore, _, _ := runGUPS(core.New(core.DefaultConfig()), gups.Config{Threads: 16, WorkingSet: 16 * sim.GB}, 2*sim.Second)
	if mmScore < heScore*0.85 || mmScore > heScore*1.15 {
		t.Errorf("small WS: MM %.3f vs HeMem %.3f, want ≈equal", mmScore, heScore)
	}
}

// Figure 5 at 128 GB (working set still under DRAM capacity): MM suffers
// conflict misses that HeMem does not; the paper reports HeMem at 3.2× MM.
func TestConflictMissGapAt128GB(t *testing.T) {
	mmScore, mMM, _ := runGUPS(memmode.New(), gups.Config{Threads: 16, WorkingSet: 128 * sim.GB}, 3*sim.Second)
	heScore, mHe, _ := runGUPS(core.New(core.DefaultConfig()), gups.Config{Threads: 16, WorkingSet: 128 * sim.GB}, 3*sim.Second)
	ratio := heScore / mmScore
	if ratio < 2 || ratio > 5 {
		t.Errorf("HeMem/MM at 128GB = %.2f, paper says 3.2", ratio)
	}
	// MM writes NVM constantly (dirty evictions); HeMem should not.
	if mMM.NVM.Wear().WriteBytes < 100*float64(mHe.NVM.Wear().WriteBytes+1) {
		t.Errorf("MM NVM writes %.2e not ≫ HeMem %.2e",
			mMM.NVM.Wear().WriteBytes, mHe.NVM.Wear().WriteBytes)
	}
}

// Figure 6: with a fixed 512 GB working set, MM degrades as the hot set
// grows toward DRAM capacity while HeMem holds up (paper: up to 2×).
func TestHotSetGrowthDegradesMM(t *testing.T) {
	small, _, _ := runGUPS(memmode.New(), gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 8 * sim.GB, Seed: 3}, 3*sim.Second)
	big, _, _ := runGUPS(memmode.New(), gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 128 * sim.GB, Seed: 3}, 3*sim.Second)
	if big > small*0.8 {
		t.Errorf("MM with 128GB hot (%.3f) should trail 8GB hot (%.3f)", big, small)
	}
}

// MM uses zero cores: at 24 application threads it should not lose
// throughput to background work (Figure 7's divergence).
func TestMMZeroCPUOverhead(t *testing.T) {
	mm := memmode.New()
	if mm.ActiveThreads() != 0 {
		t.Fatal("MM must consume no cores")
	}
}

// Write-skew blindness (Table 2): MM cannot keep the write-only partition
// out of NVM writebacks, so HeMem beats it.
func TestWriteSkewMMvsHeMem(t *testing.T) {
	cfg := gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: 7,
	}
	// Let each system converge, then score a steady-state window.
	steady := func(mgr machine.Manager) float64 {
		m := machine.New(machine.DefaultConfig(), mgr)
		g := gups.New(m, cfg)
		m.Warm()
		m.Run(240 * sim.Second)
		g.ResetScore()
		m.Run(60 * sim.Second)
		return g.Score()
	}
	mmScore := steady(memmode.New())
	heScore := steady(core.New(core.DefaultConfig()))
	if heScore <= mmScore {
		t.Errorf("write skew: HeMem %.4f should beat MM %.4f (paper: MM = 0.86× HeMem)", heScore, mmScore)
	}
}

// Zones whose traffic inputs are unchanged between refreshes must reuse
// their cached scratch rows instead of rebuilding them, and a rate change
// in one zone must rebuild exactly that zone's row. (Byte-identity of a
// reused row vs recomputation is checked by the white-box test in
// memmode_internal_test.go; the pre-cache model is pinned by the repo
// goldens.)
func TestIncrementalModelRowsReused(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.MB).AsSet()
	setB := m.AS.Map("b", 256*sim.MB).AsSet()
	comps := []machine.Component{
		{Set: setA, Share: 1, ReadBytes: 64, WriteBytes: 8},
		{Set: setB, Share: 1, ReadBytes: 128},
	}
	rates := []float64{0.25, 0.125}

	mm.ObserveTraffic(0, comps, rates) // first pass builds both rows
	if b, r := mm.ModelRowStats(); b != 2 || r != 0 {
		t.Fatalf("first refresh: built=%d reused=%d, want 2/0", b, r)
	}
	// Identical inputs: both rows reused, and the model (a pure function
	// of the rows) keeps exactly the same hit rate.
	hitA := mm.HitRate(setA)
	mm.ObserveTraffic(50*sim.Millisecond, comps, rates)
	if b, r := mm.ModelRowStats(); b != 2 || r != 2 {
		t.Fatalf("unchanged refresh: built=%d reused=%d, want 2/2", b, r)
	}
	if got := mm.HitRate(setA); got != hitA {
		t.Fatalf("cached-row refresh drifted: hit %v vs %v", got, hitA)
	}
	// One zone's rate changes: exactly its row is rebuilt.
	rates[1] = 0.5
	mm.ObserveTraffic(100*sim.Millisecond, comps, rates)
	if b, r := mm.ModelRowStats(); b != 3 || r != 3 {
		t.Fatalf("changed-zone refresh: built=%d reused=%d, want 3/3", b, r)
	}
}

// A refresh whose rows are all reused skips the closed-form pass and
// leaves the hit rates as they are; a rate change in one zone reruns it.
func TestIncrementalPassSkipped(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.MB).AsSet()
	setB := m.AS.Map("b", 256*sim.MB).AsSet()
	comps := []machine.Component{
		{Set: setA, Share: 1, ReadBytes: 64, WriteBytes: 8},
		{Set: setB, Share: 1, ReadBytes: 128},
	}
	rates := []float64{0.25, 0.125}

	mm.ObserveTraffic(0, comps, rates)
	if run, skipped := mm.ModelPasses(); run != 1 || skipped != 0 {
		t.Fatalf("first refresh: run=%d skipped=%d, want 1/0", run, skipped)
	}
	hitA, hitB := mm.HitRate(setA), mm.HitRate(setB)
	mm.ObserveTraffic(50*sim.Millisecond, comps, rates)
	if run, skipped := mm.ModelPasses(); run != 1 || skipped != 1 {
		t.Fatalf("unchanged refresh: run=%d skipped=%d, want 1/1", run, skipped)
	}
	if mm.HitRate(setA) != hitA || mm.HitRate(setB) != hitB {
		t.Fatal("skipped pass changed a hit rate")
	}
	rates[1] = 0.5
	mm.ObserveTraffic(100*sim.Millisecond, comps, rates)
	if run, skipped := mm.ModelPasses(); run != 2 || skipped != 1 {
		t.Fatalf("changed-zone refresh: run=%d skipped=%d, want 2/1", run, skipped)
	}
	// B's lines now take more of every set, so A's lines hit less often.
	if mm.HitRate(setA) >= hitA {
		t.Fatalf("hit rate of A %v did not fall below %v after B sped up", mm.HitRate(setA), hitA)
	}
}

// Once its zones exist, ObserveTraffic allocates nothing, also on the
// refreshes that rerun the closed form: its scratch table is reused.
func TestIncrementalRefreshAllocationFree(t *testing.T) {
	mm := memmode.New()
	m := machine.New(machine.DefaultConfig(), mm)
	var comps []machine.Component
	var rates []float64
	for _, mb := range []int64{64, 128, 256, 512, 1024} {
		set := m.AS.Map("z", mb*sim.MB).AsSet()
		comps = append(comps, machine.Component{Set: set, Share: 1, ReadBytes: 64, WriteBytes: 8})
		rates = append(rates, 0.25)
	}
	now := int64(0)
	mm.ObserveTraffic(now, comps, rates)
	allocs := testing.AllocsPerRun(20, func() {
		now += 50 * sim.Millisecond
		rates[0] = 0.75 - rates[0] // one zone alternates 0.25/0.5: the pass reruns
		mm.ObserveTraffic(now, comps, rates)
	})
	if allocs != 0 {
		t.Fatalf("ObserveTraffic allocates %v times per call, want 0", allocs)
	}
	if run, _ := mm.ModelPasses(); run < 20 {
		t.Fatalf("only %d passes ran", run)
	}
}

// Identically seeded multi-zone runs must reproduce bit-identical scores
// and hit rates. The occupancy model sums over zones in first-observed
// order; iterating the zones map instead would randomize the summation
// order, making MM results differ run to run.
func TestMultiZoneDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		mm := memmode.New()
		score, _, g := runGUPS(mm, gups.Config{
			Threads: 16, WorkingSet: 64 * sim.GB, HotSet: 8 * sim.GB, Seed: 17,
		}, 2*sim.Second)
		return score, mm.HitRate(g.HotPages())
	}
	s0, h0 := run()
	for i := 0; i < 3; i++ {
		if s1, h1 := run(); s1 != s0 || h1 != h0 {
			t.Fatalf("rerun %d: score %v vs %v, hot hit rate %v vs %v — multi-zone MM model is order-dependent",
				i, s1, s0, h1, h0)
		}
	}
}
