package machine

import (
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/vm"
)

// TierEventHandler is implemented by managers that drain some regions'
// pages off offline tiers themselves (graceful degradation: their own
// policy moves those pages with admission control and backpressure, and
// rebalances when the tier returns), reading liveness from TierOffline.
// Every region a manager does not drain — all of them for a manager
// without the interface — gets the machine's best-effort fallback: a
// direct evacuation of each resident page to the nearest online
// neighbour, which the manager sees only through the committed ledger
// (Committed) its placement reads.
type TierEventHandler interface {
	DrainsOffline(r *vm.Region) bool
}

// mgrDrains reports whether the attached manager drains region r's pages
// off offline tiers itself.
func (m *Machine) mgrDrains(r *vm.Region) bool {
	h, ok := m.mgr.(TierEventHandler)
	return ok && h.DrainsOffline(r)
}

// TierOffline reports whether tier t is out of service: placement must
// not target it, and its pages are being (or have been) evacuated.
func (m *Machine) TierOffline(t vm.TierID) bool {
	return int(t) > 0 && int(t) < vm.MaxTiers && m.offline[t]
}

// AnyTierOffline reports whether some tier is offline, in O(1).
func (m *Machine) AnyTierOffline() bool { return m.numOffline > 0 }

// OfflineTier takes tier t out of service (a CXL expander link-down, a
// DIMM hot-remove): placement must stop targeting it and its resident
// pages evacuate to the surviving tiers. It refuses tiers that are not in
// the table, swap tiers, tiers already offline, and the last online
// migratable tier (a machine must keep somewhere to run). Returns whether
// the tier went offline.
func (m *Machine) OfflineTier(t vm.TierID) bool { return m.offlineTier(t, 0) }

// offlineTier is OfflineTier with the chaos scheduler's scheduled online
// time (0 when unknown: programmatic calls bring the tier back with
// OnlineTier).
func (m *Machine) offlineTier(t vm.TierID, until int64) bool {
	d, ok := m.DevOf(t)
	if !ok || m.Cfg.Tiers[d].Swap || m.offline[t] {
		return false
	}
	online := 0
	for _, td := range m.Cfg.Tiers {
		if !td.Swap && !m.offline[td.ID] {
			online++
		}
	}
	if online <= 1 {
		return false
	}
	now := m.Clock.Now()
	m.offline[t] = true
	m.numOffline++
	m.offlineSince[t] = now
	m.evacDone[t] = false
	m.faultStats.TierOfflineEvents++
	m.episodes = append(m.episodes, fault.Episode{
		Kind: fault.EpTierOffline, Tier: t, Start: now, End: until, EvacNs: -1,
	})
	m.epOpen[t] = len(m.episodes)
	m.fallbackEvacuate(t)
	return true
}

// OnlineTier brings tier t back into service: placement may target it
// again and managers rebalance onto it. Returns whether the tier was
// offline.
func (m *Machine) OnlineTier(t vm.TierID) bool {
	if int(t) <= 0 || int(t) >= vm.MaxTiers || !m.offline[t] {
		return false
	}
	m.offline[t] = false
	m.numOffline--
	m.faultStats.TierOnlineEvents++
	if i := m.epOpen[t]; i > 0 {
		m.episodes[i-1].End = m.Clock.Now()
		m.epOpen[t] = 0
	}
	return true
}

// Episodes returns the replayable fault-episode log: every episode onset
// the injector or the tier lifecycle recorded, in order, with scheduled
// ends and measured evacuation times. Callers must not mutate it.
func (m *Machine) Episodes() []fault.Episode { return m.episodes }

// offlineSweep tracks evacuation progress of offline tiers once per
// quantum: when the last resident page has left (and nothing in the
// migration queue still targets the tier), the drain is complete and its
// duration — the tier's MTTR — is recorded. The regions no manager
// drains are re-swept each quantum so aborted evacuation migrations are
// re-enqueued.
func (m *Machine) offlineSweep(now int64) {
	for _, td := range m.Cfg.Tiers {
		t := td.ID
		if !m.offline[t] || m.evacDone[t] {
			continue
		}
		inbound := false
		for _, req := range m.Migrator.queue {
			if req.dst == t {
				inbound = true
				break
			}
		}
		if m.AS.Count(t) == 0 && !inbound {
			m.evacDone[t] = true
			mttr := now - m.offlineSince[t]
			m.faultStats.TierEvacuations++
			m.faultStats.TierEvacNsTotal += mttr
			if i := m.epOpen[t]; i > 0 {
				m.episodes[i-1].EvacNs = mttr
			}
			continue
		}
		m.fallbackEvacuate(t)
	}
}

// fallbackEvacuate enqueues every page resident on offline tier t, in
// the regions the manager does not drain itself, to the nearest online
// migratable neighbour (faster preferred). Best-effort path; see
// TierEventHandler.
func (m *Machine) fallbackEvacuate(t vm.TierID) {
	dst, ok := m.nearestOnline(t)
	if !ok {
		return
	}
	for _, r := range m.AS.Regions {
		if r.Count(t) == 0 || m.mgrDrains(r) {
			continue
		}
		r.EachPage(func(p *vm.Page) {
			if p.Tier == t && !p.Migrating() {
				m.Migrator.Enqueue(p, dst)
			}
		})
	}
}

// nearestOnline returns the online migratable tier closest to t in the
// table, preferring faster tiers.
func (m *Machine) nearestOnline(t vm.TierID) (vm.TierID, bool) {
	d, ok := m.DevOf(t)
	if !ok {
		return vm.TierNone, false
	}
	for i := int(d) - 1; i >= 0; i-- {
		if td := m.Cfg.Tiers[i]; !td.Swap && !m.offline[td.ID] {
			return td.ID, true
		}
	}
	for i := int(d) + 1; i < len(m.Cfg.Tiers); i++ {
		if td := m.Cfg.Tiers[i]; !td.Swap && !m.offline[td.ID] {
			return td.ID, true
		}
	}
	return vm.TierNone, false
}
