package machine

import (
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/vm"
)

// FaultHandler is implemented by managers that react to hardware faults
// the machine injects. OnNVMUncorrectable reports that an uncorrectable
// media error struck p while resident on a UE-prone tier (NVM on the
// classic testbed; any tier marked UEVictim in the table): the machine
// has already retired the failing frame and remapped the page
// (vm.AddressSpace.RetireFrame); the manager should respond, e.g. by
// queueing an emergency promotion to the next faster tier. Managers that
// do not implement the interface still get the retire-and-remap; they
// simply take no placement action.
type FaultHandler interface {
	OnNVMUncorrectable(p *vm.Page)
}

// MigrationFailureObserver is implemented by managers that want a callback
// when a migration they enqueued is abandoned after exhausting its
// retries. The page stays in its source tier with Migrating cleared and
// its bytes already committed to that tier again (Machine.Committed); the
// manager returns the page to its own bookkeeping, such as a queue.
type MigrationFailureObserver interface {
	OnMigrationFailed(p *vm.Page, dst vm.Tier)
}

// applyFaults draws this quantum's fault decisions and applies them to the
// devices and the migrator. It is a strict no-op when injection is
// disabled: no randomness is drawn, no derates are touched, and no
// counters move.
func (m *Machine) applyFaults(now, dt int64) {
	inj := m.Injector
	if !inj.Enabled() {
		return
	}
	ev := inj.Advance(now, dt)
	if ev.DMADegradedStart {
		m.faultStats.DMADegradedEpisodes++
	}
	if ev.NVMThermalStart {
		m.faultStats.NVMThermalEpisodes++
	}
	if ev.PEBSStormStart {
		m.faultStats.PEBSStorms++
	}
	// Episode log. Tier-offline episodes are logged by offlineTier, which
	// also tracks their evacuation; everything else is recorded here.
	// Compound episodes and CE storms are counted from their
	// announcements.
	for i := 0; i < ev.NumEpisodes; i++ {
		ep := ev.Episodes[i]
		switch ep.Kind {
		case fault.EpTierOffline:
			continue
		case fault.EpCompound:
			m.faultStats.CompoundEpisodes++
		case fault.EpCEStorm:
			m.faultStats.CEStorms++
		}
		m.episodes = append(m.episodes, fault.Episode{
			Kind: ep.Kind, Tier: ep.Tier, Start: now, End: ep.Until,
		})
	}
	// Tier lifecycle: onlining first (the injector emits recoveries
	// before fresh offline draws), then the quantum's offline event.
	for t := vm.Tier(1); int(t) < vm.MaxTiers; t++ {
		if ev.TierOnline[t] {
			m.OnlineTier(t)
		}
	}
	if ev.TierOffline != vm.TierNone {
		m.offlineTier(ev.TierOffline, now+inj.Config().Chaos.TierOfflineDuration)
	}
	for i := 0; i < ev.DMAChannelFails; i++ {
		live, fellBack := m.Migrator.FailDMAChannel()
		if live < 0 {
			break // already on the software-copy path; nothing left to fail
		}
		m.faultStats.DMAChannelFailures++
		if fellBack {
			m.faultStats.SoftwareCopyFallbacks++
		}
	}
	m.NVM.SetDerate(inj.NVMDerate())
	m.Migrator.setDMADerate(inj.DMADerate())
	for i := 0; i < ev.NVMUncorrectable; i++ {
		m.injectUE()
	}
	for i := 0; i < ev.CorrectableErrors; i++ {
		m.injectCE()
	}
}

// ueTier reports whether tier t is marked UEVictim in the tier table.
func (m *Machine) ueTier(t vm.TierID) bool {
	for _, td := range m.Cfg.Tiers {
		if td.ID == t {
			return td.UEVictim
		}
	}
	return false
}

// pickUEVictim selects a uniformly random page resident on a UE-prone
// tier, drawing one index from the injector's strike stream. Victim
// selection is uniform over the combined population of every UEVictim
// tier, iterated in region order then table order, so a
// single-victim-tier machine draws exactly the sequence the NVM-only
// implementation did. Returns nil when no candidate page exists.
func (m *Machine) pickUEVictim() *vm.Page {
	ueCount := func(r *vm.Region) (n int) {
		for _, td := range m.Cfg.Tiers {
			if td.UEVictim {
				n += r.Count(td.ID)
			}
		}
		return n
	}
	total := 0
	for _, r := range m.AS.Regions {
		total += ueCount(r)
	}
	if total == 0 {
		return nil
	}
	k := m.Injector.PickIndex(total)
	for _, r := range m.AS.Regions {
		if n := ueCount(r); k >= n {
			k -= n
			continue
		}
		// Only materialized pages can be resident on a UE-prone tier, so
		// the sparse walk (ascending index order, like the dense one) sees
		// every candidate.
		for i, np := 0, r.NumPages(); i < np; i++ {
			p := r.Peek(i)
			if p == nil || !m.ueTier(p.Tier) {
				continue
			}
			if k == 0 {
				return p
			}
			k--
		}
		break
	}
	return nil
}

// injectUE strikes a uniformly random page resident on a UE-prone tier
// with an uncorrectable media error: the frame is retired and the page
// remapped (keeping its tier and contents — the error was caught on
// scrub, not on a demand read), and a FaultHandler manager is asked to
// react.
func (m *Machine) injectUE() {
	victim := m.pickUEVictim()
	if victim == nil {
		return
	}
	m.AS.RetireFrame(victim)
	m.faultStats.NVMUncorrectable++
	if int(victim.Tier) >= 0 && int(victim.Tier) < vm.MaxTiers {
		m.faultStats.UncorrectableByTier[victim.Tier]++
	}
	m.faultStats.PagesRetired++
	if h, ok := m.mgr.(FaultHandler); ok {
		h.OnNVMUncorrectable(victim)
	}
}

// injectCE lands a correctable media error on a uniformly random page of
// a UE-prone tier. Correctable errors are absorbed by ECC — no data is
// lost and the page stays mapped — but a page accumulating the chaos
// config's retire threshold is predictively retired: the failing frame is
// discarded before it can produce an uncorrectable error, the page
// remaps (RetireFrame zeroes the frame's error count with the frame), and
// a FaultHandler manager may queue an emergency promotion exactly as for
// a UE.
func (m *Machine) injectCE() {
	victim := m.pickUEVictim()
	if victim == nil {
		return
	}
	m.faultStats.CorrectableErrors++
	if m.AS.NoteCorrectableError(victim) < m.Injector.CERetireThreshold() {
		return
	}
	m.AS.RetireFrame(victim)
	m.faultStats.PagesPredictivelyRetired++
	m.faultStats.PagesRetired++
	if h, ok := m.mgr.(FaultHandler); ok {
		h.OnNVMUncorrectable(victim)
	}
}
