// Heat policy: classification on a decaying per-region heatmap instead
// of the paper's per-page counters (memtierd's policy_heat +
// counters_heatmap are the exemplar). Observations accumulate heat into
// fixed-size buckets of neighbouring pages, heat decays exponentially
// with simulated time, and an exponential moving average over the last
// two policy ticks turns the bucket's trajectory into the value
// classified against the hot threshold. The threshold is relative — a
// multiple of the mean bucket heat, recomputed every tick — so the
// policy tracks whatever observation density the active tracker
// produces (sparse PEBS samples and saturated scan bits differ by orders
// of magnitude). Neighbouring pages share fate — cheaper state and
// earlier hot-set detection for dense working sets, at the price of
// false sharing across a bucket that straddles a hot/cold boundary
// (GUPS's scattered hot set is the worst case, and measuring that is the
// point).
package core

import (
	"math"

	"github.com/tieredmem/hemem/internal/sim"
)

const (
	// heatBucketPages is the heatmap granularity in pages.
	heatBucketPages = 8
	// heatHalfLife is the heat decay half-life in simulated time.
	heatHalfLife = 1 * sim.Second
	// heatWriteWeight scales write observations (writes are costlier to
	// leave in slow memory, mirroring the paper's lower write threshold).
	heatWriteWeight = 2.0
	// heatHotFactor: a bucket classifies hot when its moving average
	// exceeds this multiple of the mean bucket heat.
	heatHotFactor = 2.0
	// heatMinThreshold floors the hot threshold so startup noise (a few
	// samples into an otherwise cold heatmap) does not classify
	// everything hot.
	heatMinThreshold = 1.0
	// heatEMAAlpha weights a bucket's current heat against its heat one
	// tick earlier, smoothing single-tick spikes before they trigger
	// migration traffic.
	heatEMAAlpha = 0.7
)

// heatBucket is one heatmap cell covering heatBucketPages neighbouring
// pages of a region.
type heatBucket struct {
	heat float64 // decayed accumulated heat
	prev float64 // heat at the previous policy tick
}

// regionHeat is one tracked region's heatmap.
type regionHeat struct {
	buckets []heatBucket
	dead    bool
}

type heatPolicy struct {
	h *HeMem

	// regs holds the heatmaps in region-creation order — the decay sweep
	// and mean computation iterate it so their float arithmetic runs in
	// a deterministic order; byID indexes it by vm.Region.ID for the
	// observation path (nil: no heatmap, or the region was released).
	regs    []*regionHeat
	byID    []*regionHeat
	hasDead bool

	// thresh is the absolute hot threshold derived from the mean bucket
	// heat at the last tick; +Inf until the first tick so an empty
	// heatmap classifies nothing.
	thresh    float64
	lastDecay int64
}

// Name implements Policy.
func (pl *heatPolicy) Name() string { return "heat" }

// Attach implements Policy.
func (pl *heatPolicy) Attach(h *HeMem) {
	pl.h = h
	pl.thresh = math.Inf(1)
	pl.lastDecay = h.m.Clock.Now()
}

// bucket returns the heatmap cell covering pi's page.
func (pl *heatPolicy) bucket(pi *PageInfo) *heatBucket {
	id := pi.Page.ID
	reg := pl.h.m.AS.RegionOf(id)
	if reg.ID >= len(pl.byID) {
		pl.byID = append(pl.byID, make([]*regionHeat, reg.ID+1-len(pl.byID))...)
	}
	rh := pl.byID[reg.ID]
	if rh == nil {
		rh = &regionHeat{
			buckets: make([]heatBucket, (reg.NumPages()+heatBucketPages-1)/heatBucketPages),
		}
		pl.byID[reg.ID] = rh
		pl.regs = append(pl.regs, rh)
	}
	return &rh.buckets[reg.Index(id)/heatBucketPages]
}

// isHot classifies pi through its bucket's moving average.
func (pl *heatPolicy) isHot(pi *PageInfo) bool {
	b := pl.bucket(pi)
	return heatEMAAlpha*b.heat+(1-heatEMAAlpha)*b.prev >= pl.thresh
}

// Observe implements Policy: fold the observation into the page's bucket
// and re-list the page on its tier's queue if its classification flipped.
func (pl *heatPolicy) Observe(pi *PageInfo, write bool, n int) {
	h := pl.h
	h.stats.Samples += uint64(n)
	if n > 0 {
		w := float64(n)
		if write {
			w *= heatWriteWeight
		}
		pl.bucket(pi).heat += w
	}
	if pi.list == noList {
		return // in flight; re-listed on migration completion
	}
	if pl.isHot(pi) {
		if !h.inHotList(pi) {
			if write && !h.cfg.NoWritePriority {
				h.hotList(pi.Page.Tier).PushFront(pi)
			} else {
				h.hotList(pi.Page.Tier).PushBack(pi)
			}
		}
	} else if h.inHotList(pi) {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}

// PagePlaced implements Policy: fresh placements start cold and earn
// their bucket's heat through observations.
func (pl *heatPolicy) PagePlaced(pi *PageInfo) {
	pl.h.coldList(pi.Page.Tier).PushBack(pi)
}

// PageOut implements Policy: drop the region's heatmap with its last
// pages (Release tears down whole regions, so the first PageOut of a
// region already implies the rest).
func (pl *heatPolicy) PageOut(pi *PageInfo) {
	if id := pl.h.m.AS.RegionOf(pi.Page.ID).ID; id < len(pl.byID) && pl.byID[id] != nil {
		pl.byID[id].dead = true
		pl.hasDead = true
		pl.byID[id] = nil
	}
}

// Tick implements Policy: age every bucket, snapshot each bucket's heat
// for the moving average, refresh the relative hot threshold from the
// mean heat, then spend the budget through the shared migration loops.
func (pl *heatPolicy) Tick(now, budget int64) {
	if pl.hasDead {
		live := pl.regs[:0]
		for _, rh := range pl.regs {
			if !rh.dead {
				live = append(live, rh)
			}
		}
		pl.regs = live
		pl.hasDead = false
	}
	if dt := now - pl.lastDecay; dt > 0 {
		factor := math.Exp2(-float64(dt) / float64(heatHalfLife))
		total, count := 0.0, 0
		for _, rh := range pl.regs {
			bs := rh.buckets
			for i := range bs {
				b := &bs[i]
				b.prev = b.heat
				b.heat *= factor
				total += b.heat
			}
			count += len(bs)
		}
		if count > 0 {
			pl.thresh = heatHotFactor * (total / float64(count))
			if pl.thresh < heatMinThreshold {
				pl.thresh = heatMinThreshold
			}
		}
		pl.lastDecay = now
	}
	pl.h.migrateTick(budget)
}

// OnMigrated implements Policy.
func (pl *heatPolicy) OnMigrated(pi *PageInfo) {
	pl.Requeue(pi)
}

// Requeue implements Policy: back of the queue matching the bucket's
// current classification, on the tier the page actually sits on.
func (pl *heatPolicy) Requeue(pi *PageInfo) {
	h := pl.h
	if pl.isHot(pi) {
		h.hotList(pi.Page.Tier).PushBack(pi)
	} else {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}
