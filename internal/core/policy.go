// Policy: the classification + migration-decision half of the engine.
// A Policy consumes the observation stream the active Tracker produces
// (via Observe), keeps pages sorted into the engine's shared per-tier
// hot/cold queues, and spends each tick's migration budget. The engine
// retains the mechanism — queues, capacity accounting, the migrator,
// swap, evacuation — so policies stay small and comparable.
// The policies table lists every implementation by name; Config.Policy
// selects one.
package core

// Policy classifies pages and decides migrations. Implementations are
// listed in the policies table and selected by Config.Policy.
type Policy interface {
	// Name identifies the policy in reports and -list output.
	Name() string
	// Attach wires the policy to its host engine; called once from
	// HeMem.Attach, after the tier chain is initialized.
	Attach(h *HeMem)
	// Observe folds one observation batch for a page into the policy's
	// classification state: n accesses of the given kind. Trackers may
	// deliver n == 0 as a pure aging touch (cool and reclassify without
	// recording an access).
	Observe(pi *PageInfo, write bool, n int)
	// PagePlaced queues a freshly placed (first-touch or growth-adopted)
	// page; the page's tier is already set.
	PagePlaced(pi *PageInfo)
	// PageOut drops any per-page policy state; the engine unlinks the
	// page from its queue afterwards.
	PageOut(pi *PageInfo)
	// Tick spends the policy interval's migration budget (bytes). The
	// engine has already run evacuation for offline tiers and honored
	// the NoMigration ablation.
	Tick(now, budget int64)
	// OnMigrated re-queues a page that landed on its destination tier.
	OnMigrated(pi *PageInfo)
	// Requeue re-lists a page whose migration was abandoned or whose
	// emergency promotion could not be enqueued; the page sits on no
	// list and stays on its current tier.
	Requeue(pi *PageInfo)
}

// policies is every policy Config.Policy can name, with its constructor.
var policies = map[string]func(cfg Config) Policy{
	"heat":  func(Config) Policy { return &heatPolicy{} },
	"hemem": func(Config) Policy { return &heMemPolicy{} },
}

// PolicyNames returns every policy name, sorted.
func PolicyNames() []string { return sortedNames(policies) }

// heMemPolicy is the paper's policy (§3.1, §3.3): per-page read/write
// sample counters against fixed hot thresholds, a global cooling clock
// that halves counters lazily, write-heavy prioritization, and the
// watermark/swap/promotion migration loops.
type heMemPolicy struct {
	h *HeMem
}

// Name implements Policy.
func (pl *heMemPolicy) Name() string { return "hemem" }

// Attach implements Policy.
func (pl *heMemPolicy) Attach(h *HeMem) { pl.h = h }

// Observe implements Policy: the per-record classifier (§3.1): lazy
// cooling, counter update, hot/cold list movement, write-heavy
// promotion, and cooling-clock advancement. The tracker has already
// resolved the observation's PageInfo and filtered unmanaged pages.
func (pl *heMemPolicy) Observe(pi *PageInfo, write bool, n int) {
	h := pl.h
	h.stats.Samples += uint64(n)

	if !h.cfg.NoCooling && pi.CoolClock != h.clock {
		pl.cool(pi)
	}

	if write {
		pi.Writes = addCount(pi.Writes, n)
	} else {
		pi.Reads = addCount(pi.Reads, n)
	}

	// Advance the global cooling clock when any page accumulates the
	// cooling threshold of samples; other pages cool lazily when next
	// sampled (§3.1).
	if !h.cfg.NoCooling && int(pi.Reads)+int(pi.Writes) >= h.cfg.CoolThreshold {
		h.clock++
		h.stats.CoolEpochs++
		pl.cool(pi)
	}

	pl.classify(pi)
}

// PagePlaced implements Policy: every fresh placement starts cold and
// earns its way onto a hot list through samples.
func (pl *heMemPolicy) PagePlaced(pi *PageInfo) {
	pl.h.coldList(pi.Page.Tier).PushBack(pi)
}

// PageOut implements Policy: all per-page state lives in the PageInfo
// the engine is about to drop.
func (pl *heMemPolicy) PageOut(pi *PageInfo) {}

// cool halves the page's counters once per elapsed cooling epoch and
// refreshes its write-heavy status. A write-heavy page that cools below
// the write threshold gets a second chance on the plain hot list (§3.3).
// The epoch difference is taken modulo 2^32, which is exact whenever the
// page was last cooled fewer than 2^32 epochs ago, so for any run under
// 2^32 cooling epochs (gups-idlepage, the busiest benchmark workload,
// advances about 2,000 per simulated second).
func (pl *heMemPolicy) cool(pi *PageInfo) {
	h := pl.h
	epochs := h.clock - pi.CoolClock
	if epochs > 30 {
		epochs = 30
	}
	pi.Reads >>= epochs
	pi.Writes >>= epochs
	pi.CoolClock = h.clock
	if pi.WriteHeavy && int(pi.Writes) < h.cfg.HotWriteThreshold {
		pi.WriteHeavy = false
		if pl.isHot(pi) && pi.list != noList {
			// Second chance: back of the hot list for its tier.
			h.hotList(pi.Page.Tier).PushBack(pi)
		}
	}
	if !pl.isHot(pi) && pi.list != noList && h.inHotList(pi) {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}

// isHot reports whether the page's counters meet a hot threshold.
func (pl *heMemPolicy) isHot(pi *PageInfo) bool {
	return int(pi.Reads) >= pl.h.cfg.HotReadThreshold || int(pi.Writes) >= pl.h.cfg.HotWriteThreshold
}

// classify moves the page onto the right list after a counter update.
func (pl *heMemPolicy) classify(pi *PageInfo) {
	h := pl.h
	if pi.list == noList {
		return // in flight; re-listed on migration completion
	}
	writeHeavy := !h.cfg.NoWritePriority && int(pi.Writes) >= h.cfg.HotWriteThreshold
	if writeHeavy && !pi.WriteHeavy {
		pi.WriteHeavy = true
		h.hotList(pi.Page.Tier).PushFront(pi)
		return
	}
	if pl.isHot(pi) && !h.inHotList(pi) {
		if pi.WriteHeavy {
			h.hotList(pi.Page.Tier).PushFront(pi)
		} else {
			h.hotList(pi.Page.Tier).PushBack(pi)
		}
	}
}

// Tick implements Policy: the paper's migration tick is exactly the
// engine's shared watermark/swap/promotion loops over the hot/cold
// queues Observe maintains.
func (pl *heMemPolicy) Tick(now, budget int64) {
	pl.h.migrateTick(budget)
}

// OnMigrated implements Policy: place the landed page on the list
// matching its (possibly cooled) state.
func (pl *heMemPolicy) OnMigrated(pi *PageInfo) {
	h := pl.h
	if pl.isHot(pi) {
		if pi.WriteHeavy {
			h.hotList(pi.Page.Tier).PushFront(pi)
		} else {
			h.hotList(pi.Page.Tier).PushBack(pi)
		}
	} else {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}

// Requeue implements Policy: back of the list matching the page's
// current counters, on the tier it actually sits on.
func (pl *heMemPolicy) Requeue(pi *PageInfo) {
	h := pl.h
	if pl.isHot(pi) {
		h.hotList(pi.Page.Tier).PushBack(pi)
	} else {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}
