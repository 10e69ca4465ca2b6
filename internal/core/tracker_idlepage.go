// Idlepage/soft-dirty scan tracker: the page-table alternative to PEBS,
// built on the ptscan cost model (Linux's /sys/kernel/mm/page_idle bitmap
// plus soft-dirty PTE bits, memtierd's tracker_idlepage). Each pass walks
// every managed page's table entry, reads and clears its accessed and
// dirty bits, and charges the TLB-shootdown stalls the clearing costs.
// A bit is saturated information — "touched at least once since the last
// pass" — so over a long pass even cold pages read as accessed and the
// hot-set estimate balloons: the paper's Figure 8/9 PT-scan failure mode,
// reproduced here per page rather than per zone.
package core

import (
	"math"

	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

type idlePageTracker struct {
	h   *HeMem
	sc  *ptscan.Scanner
	rng *sim.Rand

	// nextDone is the completion time of the in-flight pass, or 0 before
	// the first pass starts.
	nextDone int64

	// lam maps each traffic set to its (accessed, dirty) per-page access
	// expectation accumulated over the finished pass (reused).
	lam map[*vm.PageSet][2]float64

	// combos caches the first nCombos (region, set slot) combinations
	// seen in the current pass; uncached holds the result for pages past
	// a full table.
	combos   [idleComboSlots]idleCombo
	nCombos  int
	uncached idleCombo
}

// idleComboSlots bounds the per-pass combination table. Workloads
// partition their pages into a handful of traffic sets, so a few entries
// cover nearly every page; the rest take the uncached path.
const idleComboSlots = 8

// idleCombo is one combination's pass result: the accessed and dirty
// expectations of its set, and their bit probabilities. A combination is
// a region and a set slot, which names the same set for every page of
// that region.
type idleCombo struct {
	r      *vm.Region
	slot   uint8
	la, lw float64
	pa, pw float64 // 1-exp(-la), 1-exp(-lw)
}

// Name implements Tracker.
func (t *idlePageTracker) Name() string { return "idlepage" }

// Attach implements Tracker. The scan granularity is the machine's page
// size: idle-page tracking works on the frames backing the 2 MB tiering
// pages directly, unlike the prototype's DAX mappings which force 4 KB
// PTE walks — one scan descriptor per managed page keeps passes short
// enough to repeat several times per measurement window.
func (t *idlePageTracker) Attach(h *HeMem) {
	t.h = h
	t.sc = ptscan.NewScanner(h.m, h.m.Cfg.PageSize)
	t.rng = sim.NewRand(h.m.Cfg.Seed ^ 0x69646c65)
	t.lam = make(map[*vm.PageSet][2]float64)
}

// PageIn implements Tracker: pages join the next pass automatically (the
// scanner walks the address space).
func (t *idlePageTracker) PageIn(pi *PageInfo) {}

// PageOut implements Tracker: released pages drop out of the walk.
func (t *idlePageTracker) PageOut(pi *PageInfo) {}

// Poll implements Tracker: start a pass if none is in flight, and
// complete the pass that is due.
func (t *idlePageTracker) Poll(now, dt int64) {
	if t.nextDone == 0 {
		t.nextDone = now + t.passTime(dt)
		return
	}
	if now < t.nextDone {
		return
	}
	t.completePass()
	t.nextDone = now + t.passTime(dt)
}

// Tick implements Tracker: no per-policy-tick housekeeping.
func (t *idlePageTracker) Tick(now int64) {}

// passTime is the duration of one scan pass, never shorter than a
// quantum.
func (t *idlePageTracker) passTime(dt int64) int64 {
	pt := t.sc.PassTime()
	if pt < dt {
		pt = dt
	}
	return pt
}

// completePass converts the finished pass into per-page bit reads. The
// scanner reports per-zone access expectations; a page's own expectation
// is the sum over the zones containing it, and its accessed/dirty bits
// are Bernoulli draws on the Poisson-thinned probability — saturated
// information, deliberately: a page accessed once and a page accessed a
// thousand times since the last pass read identically, which is exactly
// the fidelity gap between bit scanning and sampling.
//
// Pages sharing a region and set share its expectations, so they are
// computed once per combination per pass (combo); the per-page work is
// the Bernoulli draws and the policy observation.
func (t *idlePageTracker) completePass() {
	h := t.h
	clear(t.lam)
	for _, res := range t.sc.Complete() {
		t.lam[res.Set] = [2]float64{res.ExpectedReads + res.ExpectedWrites, res.ExpectedWrites}
	}
	t.nCombos = 0
	for _, w := range h.pages.windows {
		if w == nil {
			continue
		}
		for i := range w {
			pi := &w[i]
			if pi.Page == nil {
				continue
			}
			c := t.combo(pi.Page)
			accessed := c.la > 0 && t.rng.Bernoulli(c.pa)
			dirty := c.lw > 0 && t.rng.Bernoulli(c.pw)
			// An accessed bit carries no count, so it delivers a full hot
			// threshold's worth of evidence — any touched page looks hot to a
			// bit scanner; untouched pages age.
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

// combo returns the expectations of p's set for the finished pass: a
// table hit when p's (region, slot) combination was seen earlier in this
// pass, otherwise freshly computed — into a new table entry while there
// is room, into uncached when not.
func (t *idlePageTracker) combo(p *vm.Page) *idleCombo {
	slot := p.Slot()
	for i := 0; i < t.nCombos; i++ {
		if e := &t.combos[i]; e.slot == slot && e.r.Contains(p.ID) {
			return e
		}
	}
	r := t.h.m.AS.RegionOf(p.ID)
	c := &t.uncached
	if t.nCombos < idleComboSlots {
		c = &t.combos[t.nCombos]
		t.nCombos++
	}
	c.r, c.slot = r, slot
	var la, lw float64
	if s, _ := r.SlotSet(slot); s != nil {
		d := t.lam[s]
		la, lw = d[0], d[1]
	}
	c.la, c.lw = la, lw
	c.pa, c.pw = 1-math.Exp(-la), 1-math.Exp(-lw)
	return c
}
