// Multi-tenant QoS: the weighted-fair selectors below layer tenant
// awareness over the shared hot/cold FIFO fabric, reading each tenant's
// QoS class and per-tier quota from the machine's tenant runtime
// (Machine.Tenants), the one record of admissions. The queues stay
// shared — policies keep pushing through hotList/coldList untouched —
// and tenancy only changes *which* entry a bounded deterministic scan
// picks instead of the FIFO head. Until the runtime has admitted a
// tenant every page scores as untenanted, the scan window is one entry,
// and each selector picks exactly the historical FIFO pop.
package core

import (
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/vm"
)

// tenantScanLimit bounds the selector scans: a pick considers at most
// this many FIFO entries, keeping the policy tick O(limit) per move
// regardless of list length. The FIFO head still wins all ties, so the
// historical eviction order survives within a score class.
const tenantScanLimit = 256

// scanLimit is the selectors' scan window: tenantScanLimit once the
// machine's runtime has admitted a tenant, one entry (the FIFO end)
// before, when every page would tie anyway.
func (h *HeMem) scanLimit() int {
	if h.m.Tenants().NumTenants() == 0 {
		return 1
	}
	return tenantScanLimit
}

// Demotion-victim score bands. Bands are spaced wider than the maximum
// class term so pressure order is strict: over-hard-cap pages first,
// then over-reservation, then untenanted, and under-reservation pages
// only when nothing else remains. Within a band, lower classes score
// higher (demote first) and — via the usage skew — tenants holding more
// of the tier demote before tenants holding less, which is what drives
// equal-class fairness convergence.
const (
	bandUnderReserve = 1_000_000
	bandUntenanted   = 1_500_000
	bandOverReserve  = 2_000_000
	bandOverCap      = 3_000_000
	classStep        = 50_000
	skewClamp        = 40_000
)

// tenantUsage returns tenant o's resident bytes on tier t.
func (h *HeMem) tenantUsage(o vm.TenantID, t vm.Tier) int64 {
	return h.m.AS.TenantBytes(o, t)
}

// demoteScore ranks a page for demotion off tier t; higher demotes
// first.
func (h *HeMem) demoteScore(o vm.TenantID, t vm.Tier) int64 {
	if o == vm.TenantNone {
		return bandUntenanted
	}
	spec, ok := h.m.Tenants().Admission(o)
	if !ok {
		// Departed-tenant residue drains like untenanted pages.
		return bandUntenanted
	}
	usage := h.tenantUsage(o, t)
	var band int64
	switch {
	case spec.Cap[t] > 0 && usage > spec.Cap[t]:
		band = bandOverCap
	case usage > spec.Reserve[t]:
		band = bandOverReserve
	default:
		band = bandUnderReserve
	}
	w := int64(spec.Class.Weight())
	skew := usage / h.m.Cfg.PageSize / w
	if skew > skewClamp {
		skew = skewClamp
	}
	return band - w*classStep + skew
}

// promoteScore ranks a hot page for promotion onto tier dst; higher
// promotes first: class-major (gold before silver before besteffort,
// untenanted between silver and besteffort), tenants still under their
// reservation on dst next, and — inverse usage skew — tenants holding
// less of dst before tenants holding more.
func (h *HeMem) promoteScore(o vm.TenantID, dst vm.Tier) int64 {
	if o == vm.TenantNone {
		return 1_500_000
	}
	spec, ok := h.m.Tenants().Admission(o)
	if !ok {
		return 1_500_000
	}
	w := int64(spec.Class.Weight())
	s := w * 1_000_000
	usage := h.tenantUsage(o, dst)
	if usage < spec.Reserve[dst] {
		s += 500_000
	}
	skew := usage / h.m.Cfg.PageSize / w
	if skew > skewClamp {
		skew = skewClamp
	}
	return s - skew
}

// capAllows reports whether tenant o may take one more page on tier t
// under its hard cap (always true for untenanted pages, capless specs,
// and machines without tenants).
func (h *HeMem) capAllows(o vm.TenantID, t vm.Tier) bool {
	spec, ok := h.m.Tenants().Admission(o)
	if !ok || spec.Cap[t] <= 0 {
		return true
	}
	return h.tenantUsage(o, t)+h.m.Cfg.PageSize <= spec.Cap[t]
}

// owner returns the tenant charged for pi's page (TenantNone for
// untenanted pages).
func (h *HeMem) owner(pi *PageInfo) vm.TenantID {
	return h.m.AS.RegionOf(pi.Page.ID).Owner()
}

// scanBestFront walks up to limit entries from the list head and
// returns the eligible entry with the strictly highest score (earliest
// wins ties, preserving FIFO order within a score class), or nil.
func scanBestFront(l *List, limit int, score func(pi *PageInfo) (int64, bool)) *PageInfo {
	var best *PageInfo
	var bestScore int64
	for pi, i := l.Front(), 0; pi != nil && i < limit; pi, i = l.Next(pi), i+1 {
		if s, ok := score(pi); ok && (best == nil || s > bestScore) {
			best, bestScore = pi, s
		}
	}
	return best
}

// scanBestBack is scanBestFront from the tail (the historical fallback
// victim position in the watermark loop).
func scanBestBack(l *List, limit int, score func(pi *PageInfo) (int64, bool)) *PageInfo {
	var best *PageInfo
	var bestScore int64
	for pi, i := l.Back(), 0; pi != nil && i < limit; pi, i = l.Prev(pi), i+1 {
		if s, ok := score(pi); ok && (best == nil || s > bestScore) {
			best, bestScore = pi, s
		}
	}
	return best
}

// popColdVictim removes and returns the next demotion victim from chain
// position i's cold list: the highest demotion score within the scan
// window (the FIFO head without tenants).
func (h *HeMem) popColdVictim(i int) *PageInfo {
	t := h.chain[i]
	best := scanBestFront(&h.cold[i], h.scanLimit(), func(pi *PageInfo) (int64, bool) {
		return h.demoteScore(h.owner(pi), t), true
	})
	if best != nil {
		h.cold[i].Remove(best)
	}
	return best
}

// popHotBackVictim removes and returns the watermark loop's fallback
// victim from chain position i's hot list: the highest demotion score
// within the tail-side scan window (the FIFO tail without tenants: "HeMem
// migrates random data to NVM", §3.3).
func (h *HeMem) popHotBackVictim(i int) *PageInfo {
	t := h.chain[i]
	best := scanBestBack(&h.hot[i], h.scanLimit(), func(pi *PageInfo) (int64, bool) {
		return h.demoteScore(h.owner(pi), t), true
	})
	if best != nil {
		h.hot[i].Remove(best)
	}
	return best
}

// promoteCandidate returns (without removing) the next promotion
// candidate from chain position down's hot list, destined for tier dst:
// the highest promotion score within the scan window (the FIFO head
// without tenants) among owners whose hard cap on dst allows another
// page. Nil means nothing (eligible) to promote.
func (h *HeMem) promoteCandidate(down int, dst vm.Tier) *PageInfo {
	return scanBestFront(&h.hot[down], h.scanLimit(), func(pi *PageInfo) (int64, bool) {
		o := h.owner(pi)
		if !h.capAllows(o, dst) {
			return 0, false
		}
		return h.promoteScore(o, dst), true
	})
}

// evacRank orders evacuation off an offline tier: besteffort tenants
// leave first, then untenanted pages, then silver, then gold — the
// most-protected class keeps its (soon to be re-placed) pages queued
// behind everyone else so survivors' capacity pressure lands on the
// cheap classes first.
func (h *HeMem) evacRank(o vm.TenantID) int64 {
	if o == vm.TenantNone {
		return 1
	}
	spec, ok := h.m.Tenants().Admission(o)
	if !ok {
		return 1
	}
	switch spec.Class {
	case machine.BestEffort:
		return 0
	case machine.Silver:
		return 2
	default:
		return 3
	}
}

// popEvacVictim removes and returns the next page to drain off offline
// chain position i, reporting whether it came from the hot list: the
// lowest QoS class in either scan window goes first (besteffort before
// untenanted before silver before gold), hot preferred on ties since hot
// pages throttle the application hardest. Without tenants every page
// ties, so it is the historical hot-then-cold FIFO pop.
func (h *HeMem) popEvacVictim(i int) (*PageInfo, bool) {
	score := func(pi *PageInfo) (int64, bool) {
		return -h.evacRank(h.owner(pi)), true
	}
	limit := h.scanLimit()
	hotBest := scanBestFront(&h.hot[i], limit, score)
	coldBest := scanBestFront(&h.cold[i], limit, score)
	switch {
	case hotBest == nil && coldBest == nil:
		return nil, false
	case coldBest == nil:
		h.hot[i].Remove(hotBest)
		return hotBest, true
	case hotBest == nil:
		h.cold[i].Remove(coldBest)
		return coldBest, false
	}
	if h.evacRank(h.owner(coldBest)) < h.evacRank(h.owner(hotBest)) {
		h.cold[i].Remove(coldBest)
		return coldBest, false
	}
	h.hot[i].Remove(hotBest)
	return hotBest, true
}
