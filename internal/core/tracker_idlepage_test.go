package core

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// refIdlePageTracker is the idlepage tracker with its pass replaced by
// the uncached reference loop: every page looks its set's λ up in the
// map and draws on 1-exp(-λ) computed afresh.
type refIdlePageTracker struct{ *idlePageTracker }

func (r refIdlePageTracker) Poll(now, dt int64) {
	if r.nextDone != 0 && now >= r.nextDone {
		r.referencePass()
		r.nextDone = now + r.passTime(dt)
		return
	}
	r.idlePageTracker.Poll(now, dt)
}

func (r refIdlePageTracker) referencePass() {
	t := r.idlePageTracker
	h := t.h
	clear(t.lam)
	for _, res := range t.sc.Complete() {
		t.lam[res.Set] = [2]float64{res.ExpectedReads + res.ExpectedWrites, res.ExpectedWrites}
	}
	for _, w := range h.pages.windows {
		if w == nil {
			continue
		}
		for i := range w {
			pi := &w[i]
			if pi.Page == nil {
				continue
			}
			var la, lw float64
			if s := h.m.AS.SetOf(pi.Page); s != nil {
				la, lw = t.lam[s][0], t.lam[s][1]
			}
			accessed := la > 0 && t.rng.Bernoulli(1-math.Exp(-la))
			dirty := lw > 0 && t.rng.Bernoulli(1-math.Exp(-lw))
			switch {
			case dirty:
				h.pol.Observe(pi, true, h.cfg.HotWriteThreshold)
				if accessed {
					h.pol.Observe(pi, false, h.cfg.HotReadThreshold)
				}
			case accessed:
				h.pol.Observe(pi, false, h.cfg.HotReadThreshold)
			default:
				h.pol.Observe(pi, false, 0)
			}
		}
	}
}

// setMixWorkload drives traffic over ten page sets cut at random from one
// region, with some pages in no set: eleven (region, slot) combinations,
// more than the pass's combination table holds.
type setMixWorkload struct{ comps []machine.Component }

func (w *setMixWorkload) Name() string                    { return "setmix" }
func (w *setMixWorkload) Threads() int                    { return 8 }
func (w *setMixWorkload) Components() []machine.Component { return w.comps }
func (w *setMixWorkload) OnOps(int64, float64, float64)   {}
func (w *setMixWorkload) Done() bool                      { return false }

const setMixSets = 10

func newSetMixWorkload(m *machine.Machine, seed uint64) *setMixWorkload {
	r := m.AS.Map("setmix", 2*sim.GB)
	rng := sim.NewRand(seed)
	members := make([][]vm.PageID, setMixSets+1) // the last is in no set
	for i := 0; i < r.NumPages(); i++ {
		r.PageAt(i)
		j := rng.Intn(setMixSets + 1)
		members[j] = append(members[j], r.PageID(i))
	}
	w := &setMixWorkload{}
	// Shares span seven decades so per-page λ ranges from saturated to
	// nearly zero; the last two sets carry no traffic at all.
	for j := 0; j < setMixSets-2; j++ {
		c := machine.Component{
			Set:     m.AS.NewPageSet("setmix", members[j]),
			Share:   math.Pow(10, -float64(j)),
			Pattern: mem.Random,
		}
		if j%3 != 0 {
			c.ReadBytes = 64
		}
		if j%2 == 0 {
			c.WriteBytes = 64
		}
		w.comps = append(w.comps, c)
	}
	for j := setMixSets - 2; j < setMixSets; j++ {
		m.AS.NewPageSet("setmix-idle", members[j])
	}
	return w
}

func newIdlePageTwin(policy string, seed uint64, reference bool) (*machine.Machine, *HeMem) {
	h := New(Config{Tracker: "idlepage", Policy: policy, FreeTargets: map[vm.TierID]int64{vm.TierDRAM: 64 * sim.MB}})
	if reference {
		h.tracker = refIdlePageTracker{h.tracker.(*idlePageTracker)}
	}
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Tiers = machine.ClassicTiers(512*sim.MB, 0, 0)
	m := machine.New(mcfg, h)
	m.AddWorkload(newSetMixWorkload(m, seed))
	m.Warm()
	return m, h
}

// The set-combination cache is an exact optimization: on twin machines,
// the cached pass and the uncached reference loop leave identical engine
// statistics, per-page counters, hot-list membership, and tracker RNG
// state, under both policies.
func TestIdlePagePassMatchesReference(t *testing.T) {
	for _, policy := range []string{"hemem", "heat"} {
		for _, seed := range []uint64{1, 2, 3} {
			mc, hc := newIdlePageTwin(policy, seed, false)
			mr, hr := newIdlePageTwin(policy, seed, true)
			mc.Run(2 * sim.Second)
			mr.Run(2 * sim.Second)

			if hc.Stats() != hr.Stats() {
				t.Fatalf("%s seed %d: stats %+v, reference %+v", policy, seed, hc.Stats(), hr.Stats())
			}
			if hc.Stats().Samples == 0 || hc.Stats().Promotions == 0 {
				t.Fatalf("%s seed %d: run too quiet to compare: %+v", policy, seed, hc.Stats())
			}
			for i, id := range mc.AS.Regions[0].AllPages() {
				pc, pr := mc.AS.Page(id), mr.AS.Regions[0].PageAt(i)
				ic, ir := hc.info(pc.ID), hr.info(pr.ID)
				if ic.Reads != ir.Reads || ic.Writes != ir.Writes || ic.CoolClock != ir.CoolClock ||
					hc.inHotList(ic) != hr.inHotList(ir) || pc.Tier != pr.Tier {
					t.Fatalf("%s seed %d page %d: cached %+v hot=%v tier=%v, reference %+v hot=%v tier=%v",
						policy, seed, i, *ic, hc.inHotList(ic), pc.Tier, *ir, hr.inHotList(ir), pr.Tier)
				}
			}
			tc := hc.tracker.(*idlePageTracker)
			tr := hr.tracker.(refIdlePageTracker)
			if tc.nCombos != idleComboSlots {
				t.Fatalf("%s seed %d: %d combinations cached, want a full table", policy, seed, tc.nCombos)
			}
			if a, b := tc.rng.Uint64(), tr.rng.Uint64(); a != b {
				t.Fatalf("%s seed %d: tracker RNG diverged: next draw %x, reference %x", policy, seed, a, b)
			}
		}
	}
}

// A steady-state pass allocates nothing: the scanner reuses its result
// slice, the λ map keeps its buckets, and the combination table is
// tracker-owned.
func TestIdlePagePassAllocationFree(t *testing.T) {
	m, h := newIdlePageTwin("hemem", 1, false)
	m.Run(50 * sim.Millisecond)
	tr := h.tracker.(*idlePageTracker)
	tr.completePass()
	if n := testing.AllocsPerRun(20, tr.completePass); n != 0 {
		t.Fatalf("completePass allocates %v times per pass, want 0", n)
	}
}
