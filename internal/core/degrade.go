// Graceful tier degradation: HeMem's response to whole-tier offline
// events (a CXL expander link-down, a DIMM hot-remove). The manager reads
// tier liveness from the machine (Machine.TierOffline) and reports that
// it drains the regions it manages itself (machine.TierEventHandler), so
// the machine's best-effort fallback sweeps only the rest (pinned
// regions and small, kernel-path allocations, whose pages never enter
// the FIFO lists) — the policy tick drains the managed pages off the
// offline tier through the normal migration machinery, under the same bandwidth budget as ordinary promotions
// (backpressure: a survivor with no capacity this tick is retried next
// tick, never overcommitted), while placement stops targeting the tier
// (admission control). When the tier comes back online the ordinary
// watermark and promotion loops rebalance onto it; no special rebuild
// pass is needed.
package core

import (
	"github.com/tieredmem/hemem/internal/vm"
)

// DrainsOffline implements machine.TierEventHandler: evacuate, called
// from each policy tick while any tier is offline, drains the FIFO lists,
// which hold exactly the pages of managed regions.
func (h *HeMem) DrainsOffline(r *vm.Region) bool { return h.Managed(r) }

// offlineAt reports whether chain position i is offline.
func (h *HeMem) offlineAt(i int) bool { return h.m.TierOffline(h.chain[i]) }

// firstOnline returns the fastest online chain position. The machine
// never offlines its last migratable tier, so one always exists.
func (h *HeMem) firstOnline() int {
	for i := range h.chain {
		if !h.offlineAt(i) {
			return i
		}
	}
	return 0
}

// lastOnline returns the slowest online chain position.
func (h *HeMem) lastOnline() int {
	for i := len(h.chain) - 1; i > 0; i-- {
		if !h.offlineAt(i) {
			return i
		}
	}
	return 0
}

// activePositions returns the online chain positions in order, into a
// reused scratch slice. With nothing offline it is the identity
// 0..len(chain)-1, so the policy loops walking it behave exactly as the
// historical fixed-neighbour loops did.
func (h *HeMem) activePositions() []int {
	h.act = h.act[:0]
	for i := range h.chain {
		if !h.offlineAt(i) {
			h.act = append(h.act, i)
		}
	}
	return h.act
}

// evacDst picks the surviving chain position to receive one evacuated
// page from offline position i: hot pages scan faster neighbours first
// (nearest first) and then slower ones, cold pages the reverse, taking
// the first online tier with hard capacity for the page. Returns -1
// when no survivor has room this tick (backpressure — the caller leaves
// the page queued and retries next tick).
func (h *HeMem) evacDst(i int, hotPage bool, ps int64) int {
	try := func(j int) bool {
		return !h.offlineAt(j) && h.free(j) >= ps
	}
	if hotPage {
		for j := i - 1; j >= 0; j-- {
			if try(j) {
				return j
			}
		}
		for j := i + 1; j < len(h.chain); j++ {
			if try(j) {
				return j
			}
		}
		return -1
	}
	for j := i + 1; j < len(h.chain); j++ {
		if try(j) {
			return j
		}
	}
	for j := i - 1; j >= 0; j-- {
		if try(j) {
			return j
		}
	}
	return -1
}

// evacuate drains the FIFO lists of every offline tier through the
// migrator, spending from the policy tick's bandwidth budget and
// returning what is left. Hot pages go first (they are the ones
// throttling the application) and prefer faster survivors; cold pages
// prefer slower ones. Capacity on the survivors is a hard admission
// limit — free-watermark targets are ignored during an evacuation, and
// the regular watermark loop restores them afterwards. When EnableSwap
// is set and no migratable survivor has room, cold pages spill to the
// swap tier as a last resort.
func (h *HeMem) evacuate(budget int64) int64 {
	ps := h.m.Cfg.PageSize
	for i := range h.chain {
		if !h.offlineAt(i) {
			continue
		}
		for budget > 0 {
			pi, hotPage := h.popEvacVictim(i)
			if pi == nil {
				break
			}
			j := h.evacDst(i, hotPage, ps)
			var dst vm.Tier
			switch {
			case j >= 0:
				dst = h.chain[j]
			case !hotPage && h.cfg.EnableSwap && h.swapTier != vm.TierNone:
				dst = h.swapTier
			default:
				// Backpressure: nowhere to put the page this tick.
				if hotPage {
					h.hot[i].PushFront(pi)
				} else {
					h.cold[i].PushFront(pi)
				}
				return budget
			}
			if !h.m.Migrator.Enqueue(pi.Page, dst) {
				if hotPage {
					h.hot[i].PushFront(pi)
				} else {
					h.cold[i].PushFront(pi)
				}
				return budget
			}
			h.stats.Evacuations++
			if dst == h.swapTier {
				h.stats.SwapOuts++
			} else if j < i {
				h.stats.Promotions++
			} else {
				h.stats.Demotions++
			}
			budget -= ps
		}
	}
	return budget
}
