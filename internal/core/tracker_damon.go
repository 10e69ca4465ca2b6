// DAMON-style adaptive region tracker: instead of sampling individual
// accesses (PEBS) or scanning every page-table entry (idlepage), it
// partitions each mapped region into a bounded number of contiguous
// sampling regions, probes ONE random page per region per sampling
// interval, and adaptively splits and merges regions so their boundaries
// converge on areas of uniform access frequency — kernel DAMON's design,
// and the granularity-adapting management HM-Keeper argues for. Tracking
// cost is O(regions) per interval regardless of working-set size; the
// price is spatial resolution, bounded by the region cap.
package core

import (
	"math"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

const (
	// damonSampleInterval is the probe cadence; damonAggInterval closes
	// an aggregation window (kernel defaults: 5 ms / 100 ms).
	damonSampleInterval = 5 * sim.Millisecond
	damonAggInterval    = 100 * sim.Millisecond
	// damonMaxRegions bounds the total region count; damonMinPages is
	// the smallest region a split may produce.
	damonMaxRegions = 256
	damonMinPages   = 4
	// damonMergeThreshold: adjacent regions whose per-window access
	// counts differ by at most this merge back together.
	damonMergeThreshold = 2
	// damonTouchPages caps how many pages of a region receive the
	// region's aggregated observation per window (round-robin), bounding
	// per-window policy work on huge regions.
	damonTouchPages = 128
)

// damonRegion is one contiguous sampling region within a vm.Region.
type damonRegion struct {
	reg        *vm.Region
	start, end int // page-index range [start, end) within reg.Pages
	accesses   int // sampling intervals whose probe saw an access
	writes     int // sampling intervals whose probe saw a write
	cursor     int // round-robin observation-emission cursor
}

type damonTracker struct {
	h   *HeMem
	rng *sim.Rand

	regions []damonRegion
	// known/dead are Region.ID-indexed: regions already under tracking,
	// and regions released since the last Poll (their sampling regions
	// are dropped lazily, because PageOut arrives once per page).
	known   []bool
	dead    []bool
	hasDead bool

	// snaps holds per-set access-integral snapshots at the last sampling
	// interval; deltas the per-interval difference (reused).
	snaps  map[*vm.PageSet][2]float64
	deltas map[*vm.PageSet][2]float64

	nextSample int64
	nextAgg    int64
	passes     int // sampling intervals in the current window
}

// Name implements Tracker.
func (t *damonTracker) Name() string { return "damon" }

// Attach implements Tracker.
func (t *damonTracker) Attach(h *HeMem) {
	t.h = h
	t.rng = sim.NewRand(h.m.Cfg.Seed ^ 0x64616d6f)
	t.snaps = make(map[*vm.PageSet][2]float64)
	t.deltas = make(map[*vm.PageSet][2]float64)
	now := h.m.Clock.Now()
	t.nextSample = now + damonSampleInterval
	t.nextAgg = now + damonAggInterval
}

// PageIn implements Tracker: the first tracked page of a vm.Region
// creates one sampling region spanning the whole mapping; splitting
// refines it from there. Pages that have not faulted in yet probe as
// untouched until they do.
func (t *damonTracker) PageIn(pi *PageInfo) {
	reg := t.h.m.AS.RegionOf(pi.Page.ID)
	if regionFlag(t.known, reg.ID) {
		return
	}
	setRegionFlag(&t.known, reg.ID, true)
	t.regions = append(t.regions, damonRegion{reg: reg, start: 0, end: reg.NumPages()})
}

// PageOut implements Tracker: mark the region dead; its sampling regions
// are filtered on the next Poll.
func (t *damonTracker) PageOut(pi *PageInfo) {
	setRegionFlag(&t.dead, t.h.m.AS.RegionOf(pi.Page.ID).ID, true)
	t.hasDead = true
}

// Poll implements Tracker: run due sampling intervals and close due
// aggregation windows.
func (t *damonTracker) Poll(now, dt int64) {
	if t.hasDead {
		t.dropDead()
	}
	if now >= t.nextSample {
		t.samplePass()
		t.nextSample = now + damonSampleInterval
	}
	if now >= t.nextAgg {
		t.aggregate()
		t.nextAgg = now + damonAggInterval
	}
}

// Tick implements Tracker: DAMON has no per-policy-tick housekeeping.
func (t *damonTracker) Tick(now int64) {}

// dropDead removes sampling regions of released vm.Regions.
func (t *damonTracker) dropDead() {
	out := t.regions[:0]
	for _, r := range t.regions {
		if regionFlag(t.dead, r.reg.ID) {
			continue
		}
		out = append(out, r)
	}
	t.regions = out
	for id := range t.dead {
		if t.dead[id] {
			t.dead[id] = false
			if id < len(t.known) {
				t.known[id] = false
			}
		}
	}
	t.hasDead = false
}

// samplePass probes one random page per region. The probability that the
// probe observes the page as accessed comes from the machine's
// access-bit statistics: the expected per-page accesses of every set the
// page belongs to since the last interval, Poisson-thinned to
// P = 1 - e^-λ, exactly the model the page-table scanners use.
func (t *damonTracker) samplePass() {
	h := t.h
	for _, set := range h.m.RateSets() {
		r := h.m.Rates(set)
		snap := t.snaps[set]
		t.deltas[set] = [2]float64{r.ReadIntegral - snap[0], r.WriteIntegral - snap[1]}
		t.snaps[set] = [2]float64{r.ReadIntegral, r.WriteIntegral}
	}
	t.passes++
	for i := range t.regions {
		r := &t.regions[i]
		span := r.end - r.start
		if span <= 0 {
			continue
		}
		p := r.reg.Peek(r.start + t.rng.Intn(span))
		if p == nil || h.info(p.ID) == nil {
			continue // not faulted in yet: reads as untouched
		}
		var lr, lw float64
		if s, _ := r.reg.SlotSet(p.Slot()); s != nil {
			d := t.deltas[s]
			lr, lw = d[0], d[1]
		}
		if t.rng.Bernoulli(1 - math.Exp(-(lr + lw))) {
			r.accesses++
		}
		if lw > 0 && t.rng.Bernoulli(1-math.Exp(-lw)) {
			r.writes++
		}
	}
}

// aggregate closes a window: convert each region's access counts into
// per-page observations for the policy, then merge similar neighbours
// and split coarse regions so the next window samples at better
// granularity (DAMON's adaptation loop).
func (t *damonTracker) aggregate() {
	h := t.h
	passes := t.passes
	if passes == 0 {
		passes = 1
	}
	for i := range t.regions {
		r := &t.regions[i]
		span := r.end - r.start
		if span <= 0 {
			continue
		}
		// Scale the observed access fraction onto the policy's hot
		// thresholds: a region accessed every interval delivers a
		// threshold's worth of accesses to each touched page, a
		// half-accessed region half that, an idle region a pure aging
		// touch.
		af := float64(r.accesses) / float64(passes)
		wf := float64(r.writes) / float64(passes)
		n := int(af*float64(h.cfg.HotReadThreshold) + 0.5)
		wn := int(wf*float64(h.cfg.HotWriteThreshold) + 0.5)
		touch := span
		if touch > damonTouchPages {
			touch = damonTouchPages
		}
		for k := 0; k < touch; k++ {
			p := r.reg.Peek(r.start + (r.cursor+k)%span)
			if p == nil {
				continue
			}
			pi := h.info(p.ID)
			if pi == nil {
				continue
			}
			if n > 0 {
				h.pol.Observe(pi, false, n)
			}
			if wn > 0 {
				h.pol.Observe(pi, true, wn)
			}
			if n == 0 && wn == 0 {
				h.pol.Observe(pi, false, 0)
			}
		}
		r.cursor = (r.cursor + touch) % span
	}
	t.mergeRegions()
	t.splitRegions()
	for i := range t.regions {
		t.regions[i].accesses, t.regions[i].writes = 0, 0
	}
	t.passes = 0
}

// mergeRegions joins adjacent regions of the same mapping whose access
// counts differ by at most the merge threshold.
func (t *damonTracker) mergeRegions() {
	out := t.regions[:0]
	for _, r := range t.regions {
		if len(out) > 0 {
			last := &out[len(out)-1]
			d := last.accesses - r.accesses
			if d < 0 {
				d = -d
			}
			if last.reg == r.reg && last.end == r.start && d <= damonMergeThreshold {
				last.end = r.end
				continue
			}
		}
		out = append(out, r)
	}
	t.regions = out
}

// splitRegions splits each region in two at a random offset while the
// region budget allows, so the next window can tell the halves apart.
func (t *damonTracker) splitRegions() {
	total := len(t.regions)
	out := make([]damonRegion, 0, 2*total)
	for _, r := range t.regions {
		span := r.end - r.start
		if total >= damonMaxRegions || span < 2*damonMinPages {
			out = append(out, r)
			continue
		}
		mid := r.start + damonMinPages + t.rng.Intn(span-2*damonMinPages+1)
		left := r
		left.end = mid
		left.cursor = 0
		out = append(out, left, damonRegion{reg: r.reg, start: mid, end: r.end})
		total++
	}
	t.regions = out
}
