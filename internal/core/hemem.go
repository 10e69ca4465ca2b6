package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Config holds HeMem's policy parameters. Defaults are the prototype's
// experimentally determined values (§3, §5.1 sensitivity studies).
type Config struct {
	// HotReadThreshold is the sampled load count at which a page becomes
	// hot (paper: 8).
	HotReadThreshold int
	// HotWriteThreshold is the sampled store count at which a page
	// becomes hot and write-heavy (paper: 4 — half the read threshold).
	HotWriteThreshold int
	// CoolThreshold is the accumulated sample count on any single page
	// that advances the global cooling clock (paper: 18).
	CoolThreshold int
	// SamplePeriod is the PEBS sampling period in accesses (paper: 5000).
	SamplePeriod float64
	// LargeAllocThreshold: regions at least this large are managed;
	// smaller allocations are forwarded to the kernel and stay in DRAM
	// (paper: 1 GB).
	LargeAllocThreshold int64
	// NoDMA disables the I/OAT engine, copying with the migrator's 4 copy
	// threads instead (the paper's Figure 7 ablation). The switches below are inverted so the zero value is the
	// paper default and a partially filled Config keeps full paper
	// behavior.
	NoDMA bool
	// NoWritePriority disables write-heavy page prioritization (§3.3)
	// as an ablation.
	NoWritePriority bool
	// NoCooling disables the cooling clock as an ablation.
	NoCooling bool
	// NoMigration stops the policy from moving pages (Figure 8's
	// "PEBS" bar uses it to isolate sampling overhead).
	NoMigration bool
	// PlaceFunc, when set, overrides the default fastest-first placement
	// on first touch while keeping tracking intact. Figure 8's "Opt" and
	// "PEBS" bars use it to place the known-hot set manually.
	PlaceFunc func(p *vm.Page) vm.Tier
	// EnableSwap adds the slowest tier the paper's §3.4 sketches: when
	// the slowest migratable tier fills, the policy swaps its coldest
	// pages out to the block device, and swaps pages back in when
	// traffic reaches them again. Off by default, as in the prototype.
	EnableSwap bool
	// FreeTargets sets the free-space watermark of each migratable tier,
	// keyed by TierID. A tier absent from the map keeps defaultFreeTarget
	// free (paper: 1 GB of DRAM kept free for new allocations), so a
	// default config needs no entries and longer chains can tune each
	// link independently.
	FreeTargets map[vm.TierID]int64
	// AdaptiveSampling raises the PEBS sample period when the buffer
	// overruns persistently (Figure 10's tradeoff: fewer samples beat
	// silently losing the hot set to drops). Off by default so the
	// sensitivity experiments measure fixed periods.
	AdaptiveSampling bool
	// Tracker selects the access-observation mechanism by name (see
	// TrackerNames): "pebs" (the paper's sampling pipeline), "damon"
	// (adaptive region sampling), "idlepage" (page-table scan). Empty
	// selects "pebs".
	Tracker string
	// Policy selects the classification/migration policy by name (see
	// PolicyNames): "hemem" (the paper's per-page counters) or "heat"
	// (decaying region heatmap). Empty selects "hemem".
	Policy string
}

// Fixed prototype parameters: every experiment runs them at one value.
const (
	// defaultFreeTarget is the free-space watermark of a tier absent
	// from Config.FreeTargets.
	defaultFreeTarget = 1 * sim.GB
	// policyInterval is the migration policy period (paper: 10 ms).
	policyInterval = 10 * sim.Millisecond
	// migRateGBps bounds migration bandwidth in GB/s (paper: 10).
	migRateGBps = 10
	// backgroundThreads is the core cost of HeMem's PEBS, policy, and
	// fault threads while the manager runs.
	backgroundThreads = 2.5
	// pebsBufferCap is the PEBS buffer capacity in records.
	pebsBufferCap = 1 << 16
	// overrunDropThreshold is the per-tick drop fraction above which a
	// policy tick counts as overrunning (AdaptiveSampling).
	overrunDropThreshold = 0.10
	// overrunPatience is how many consecutive overrunning ticks trigger
	// a sample-period raise.
	overrunPatience = 5
	// maxPeriodFactor caps adaptive raises at this multiple of
	// Config.SamplePeriod.
	maxPeriodFactor = 16
)

// DefaultConfig returns the paper's prototype parameters.
func DefaultConfig() Config {
	return Config{
		HotReadThreshold:    8,
		HotWriteThreshold:   4,
		CoolThreshold:       18,
		SamplePeriod:        5000,
		LargeAllocThreshold: 1 * sim.GB,
		Tracker:             "pebs",
		Policy:              "hemem",
	}
}

// maxThreshold caps HotReadThreshold, HotWriteThreshold and
// CoolThreshold so that the one-byte sample counters never saturate with
// cooling on: no count exceeds max(CoolThreshold-1, N)+N, where N, the
// largest observation a tracker delivers, is at most one hot threshold
// (see PageInfo.Reads), and 2*127 = 254 < 255.
const maxThreshold = 127

// Validate reports the first invalid parameter, or nil. Zero values are
// valid (New falls back to defaults).
func (c Config) Validate() error {
	if c.HotReadThreshold < 0 || c.HotWriteThreshold < 0 || c.CoolThreshold < 0 {
		return fmt.Errorf("core: negative hot/cool threshold")
	}
	if max(c.HotReadThreshold, c.HotWriteThreshold, c.CoolThreshold) > maxThreshold {
		return fmt.Errorf("core: hot read/write and cool thresholds %d/%d/%d: each must be at most %d, so the one-byte sample counters never saturate",
			c.HotReadThreshold, c.HotWriteThreshold, c.CoolThreshold, maxThreshold)
	}
	if !(c.SamplePeriod >= 0) || math.IsInf(c.SamplePeriod, 1) {
		return fmt.Errorf("core: SamplePeriod %v not a finite non-negative number", c.SamplePeriod)
	}
	for t, v := range c.FreeTargets {
		if v < 0 {
			return fmt.Errorf("core: negative FreeTargets[%v] %d", t, v)
		}
	}
	if c.LargeAllocThreshold < 0 {
		return fmt.Errorf("core: negative LargeAllocThreshold %d", c.LargeAllocThreshold)
	}
	if _, ok := trackers[c.Tracker]; c.Tracker != "" && !ok {
		return fmt.Errorf("core: unknown tracker %q (valid: %s)", c.Tracker, strings.Join(TrackerNames(), ", "))
	}
	if _, ok := policies[c.Policy]; c.Policy != "" && !ok {
		return fmt.Errorf("core: unknown policy %q (valid: %s)", c.Policy, strings.Join(PolicyNames(), ", "))
	}
	return nil
}

// Stats aggregates engine activity for reporting and tests.
type Stats struct {
	Samples      uint64
	CoolEpochs   uint64
	Promotions   int64
	Demotions    int64
	SwapIns      int64
	SwapOuts     int64
	WPStallPages int64
	// EmergencyPromotions counts pages evacuated from a tier after an
	// uncorrectable media error (also included in Promotions).
	EmergencyPromotions int64
	// PeriodRaises counts adaptive sample-period increases.
	PeriodRaises int64
	// TierOfflines and TierOnlines count the machine's whole-tier
	// lifecycle events; Evacuations counts pages HeMem queued to drain
	// off offline tiers (also included in Promotions/Demotions/SwapOuts
	// by direction).
	TierOfflines int64
	TierOnlines  int64
	Evacuations  int64
}

// HeMem is the manager: it implements machine.Manager, owning the shared
// tiering fabric — per-tier hot/cold FIFO queues, the migration chain,
// swap, and offline-tier evacuation, all deciding from the machine's
// committed ledger (machine.Machine.Committed) — while
// delegating access observation to a pluggable Tracker and
// classification/migration decisions to a pluggable Policy (both
// selected by Config; the defaults reproduce the paper's PEBS pipeline
// byte-for-byte). The fabric is written against the machine's tier table
// rather than a fixed DRAM/NVM pair: each migratable tier holds a hot
// and a cold queue, demotions flow to the next slower tier and
// promotions to the next faster one, so the same code drives 2-, 3-, or
// 4-tier chains (e.g. DRAM+CXL+NVM) without changes.
type HeMem struct {
	cfg Config
	m   *machine.Machine

	tracker Tracker
	pol     Policy

	// pages stores every managed page's PageInfo by PageID, and the
	// table of the hot/cold queues below.
	pages pageTable

	// chain is the machine's migratable tiers, fastest first — the
	// migration graph is this linear order (promote = previous entry,
	// demote = next entry). swapTier is the §3.4 swap-only backing tier
	// (TierNone when the table has none), reached only through
	// swapPolicy, never through watermark demotion.
	chain    []vm.TierID
	caps     []int64 // capacity per chain position
	swapTier vm.TierID
	// tierRank maps a TierID to its chain position, or -1.
	tierRank [vm.MaxTiers]int8

	// hot and cold are the per-tier FIFO queues, indexed by chain
	// position. swapCold queues swapped-out pages; hot swap-tier pages
	// queue on the slowest migratable tier's hot list so the swap-in
	// policy moves them up before the promotion scan considers them.
	hot, cold []List
	swapCold  *List

	clock uint32 // global cooling clock, modulo 2^32 (see heMemPolicy.cool)
	// freeTarget is the per-chain-position free-space watermark resolved
	// from Config.FreeTargets at Attach.
	freeTarget []int64
	// pinned, managed, and released are indexed by Region.ID (dense
	// per-address-space), replacing pointer-keyed maps on the page-in and
	// policy hot paths.
	pinned   []bool
	managed  []bool // growth-promoted regions
	released []bool
	// diskCursor is indexed by the machine's rate-set order (the same
	// index swapPolicy iterates), replacing a map keyed by *vm.PageSet.
	diskCursor []int

	// act is the reusable online-position scratch the policy loops walk
	// (see degrade.go).
	act []int

	stats Stats
}

// New creates a HeMem manager with cfg (zero value gets defaults; call
// Config.Validate to detect invalid parameters beforehand). It panics with
// Validate's message if cfg is invalid once defaulted.
// Unset (zero) fields fall back to DefaultConfig field-by-field, so a
// caller that sets only the knobs it cares about keeps them:
// historically HotReadThreshold == 0 silently replaced the entire config
// with the defaults, clobbering every field the caller did set. The
// ablation switches are spelled so that false is the paper default
// (NoDMA, NoWritePriority, NoCooling, NoMigration), which keeps partial
// configs on full paper behavior without a sentinel.
func New(cfg Config) *HeMem {
	def := DefaultConfig()
	if cfg.HotReadThreshold == 0 {
		cfg.HotReadThreshold = def.HotReadThreshold
	}
	if cfg.HotWriteThreshold == 0 {
		cfg.HotWriteThreshold = def.HotWriteThreshold
	}
	if cfg.CoolThreshold == 0 {
		cfg.CoolThreshold = def.CoolThreshold
	}
	if cfg.LargeAllocThreshold == 0 {
		cfg.LargeAllocThreshold = def.LargeAllocThreshold
	}
	if !(cfg.SamplePeriod > 0) || math.IsInf(cfg.SamplePeriod, 1) {
		cfg.SamplePeriod = def.SamplePeriod
	}
	if cfg.Tracker == "" {
		cfg.Tracker = def.Tracker
	}
	if cfg.Policy == "" {
		cfg.Policy = def.Policy
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &HeMem{cfg: cfg, swapTier: vm.TierNone}
	h.tracker = trackers[cfg.Tracker](cfg)
	h.pol = policies[cfg.Policy](cfg)
	return h
}

// Name implements machine.Manager.
func (h *HeMem) Name() string { return "HeMem" }

// Config returns the active configuration.
func (h *HeMem) Config() Config { return h.cfg }

// Stats returns a copy of the engine counters. The tier lifecycle,
// sample-period and emergency-promotion counts are the machine's own
// (FaultCounters), which only HeMem's tracker and fault handler raise.
func (h *HeMem) Stats() Stats {
	st := h.stats
	if h.m != nil {
		fc := h.m.FaultCounters()
		st.EmergencyPromotions = fc.EmergencyPromotions
		st.PeriodRaises = fc.SamplePeriodRaises
		st.TierOfflines, st.TierOnlines = fc.TierOfflineEvents, fc.TierOnlineEvents
	}
	return st
}

// Tracker returns the active access tracker.
func (h *HeMem) Tracker() Tracker { return h.tracker }

// Policy returns the active classification/migration policy.
func (h *HeMem) Policy() Policy { return h.pol }

// Sampler implements machine.SampleSource: the machine feeds PEBS
// samples into the tracker's sampler when the tracker has one. Scan- and
// region-based trackers return nil and observe through the machine's
// traffic rates instead.
func (h *HeMem) Sampler() *pebs.Sampler {
	if s, ok := h.tracker.(interface{ Sampler() *pebs.Sampler }); ok {
		return s.Sampler()
	}
	return nil
}

// Buffer exposes the PEBS buffer (drop statistics for Figure 10), or nil
// when the active tracker does not sample through one.
func (h *HeMem) Buffer() *pebs.Buffer {
	if b, ok := h.tracker.(interface{ Buffer() *pebs.Buffer }); ok {
		return b.Buffer()
	}
	return nil
}

// Attach implements machine.Manager: build the per-tier queues from the
// machine's tier table, choose the migrator's copy engine, attach the
// tracker and policy, and start the policy timer.
func (h *HeMem) Attach(m *machine.Machine) {
	h.m = m
	h.initTiers()
	m.Migrator.RateCap = sim.GBps(migRateGBps)
	m.Migrator.UseCopyThreads(h.cfg.NoDMA)
	h.tracker.Attach(h)
	h.pol.Attach(h)
	var tick func(now int64)
	tick = func(now int64) {
		h.tick(now)
		m.Events.Schedule(now+policyInterval, tick)
	}
	m.Events.Schedule(m.Clock.Now()+policyInterval, tick)
}

// initTiers derives the migration chain, queues, and watermarks from the
// machine's tier table.
func (h *HeMem) initTiers() {
	for i := range h.tierRank {
		h.tierRank[i] = -1
	}
	h.chain = h.chain[:0]
	h.caps = h.caps[:0]
	h.swapTier = vm.TierNone
	for _, td := range h.m.TierTable() {
		if td.Swap {
			if h.swapTier == vm.TierNone {
				h.swapTier = td.ID
			}
			continue
		}
		if int(td.ID) < vm.MaxTiers {
			h.tierRank[td.ID] = int8(len(h.chain))
		}
		h.chain = append(h.chain, td.ID)
		h.caps = append(h.caps, td.Capacity)
	}
	if len(h.chain) == 0 {
		panic("core: tier table has no migratable tiers")
	}
	n := len(h.chain)
	lists := h.pages.makeLists(2*n + 1)
	h.hot, h.cold, h.swapCold = lists[:n], lists[n:2*n], &lists[2*n]
	h.freeTarget = make([]int64, len(h.chain))
	for i, t := range h.chain {
		name := strings.ToLower(t.String())
		h.hot[i].Name, h.hot[i].hot = name+"-hot", true
		h.cold[i].Name = name + "-cold"
		ft, ok := h.cfg.FreeTargets[t]
		if !ok {
			ft = defaultFreeTarget
		}
		h.freeTarget[i] = ft
	}
	if h.swapTier != vm.TierNone {
		h.swapCold.Name = strings.ToLower(h.swapTier.String()) + "-cold"
	}
}

// rankOf returns t's chain position, or -1 (swap tier / untracked).
func (h *HeMem) rankOf(t vm.Tier) int {
	if int(t) >= 0 && int(t) < vm.MaxTiers {
		return int(h.tierRank[t])
	}
	return -1
}

// info returns the tracking state for page id, or nil if unmanaged.
func (h *HeMem) info(id vm.PageID) *PageInfo { return h.pages.get(id) }

// track creates tracking state for a managed page.
func (h *HeMem) track(p *vm.Page) *PageInfo { return h.pages.track(p, h.clock) }

// regionFlag reads a Region.ID-indexed boolean.
func regionFlag(flags []bool, id int) bool { return id < len(flags) && flags[id] }

// setRegionFlag sets a Region.ID-indexed boolean, growing the slice.
func setRegionFlag(flags *[]bool, id int, v bool) {
	for id >= len(*flags) {
		*flags = append(*flags, false)
	}
	(*flags)[id] = v
}

// Manage begins tracking a region that was previously left to the kernel:
// the paper's growth policy ("If HeMem observes a region growing via small
// allocations, it will start to manage it once a size threshold is
// crossed", §3.3). Already-placed pages enter the cold list of their
// current tier; untouched pages will be placed on first touch.
func (h *HeMem) Manage(r *vm.Region) {
	if regionFlag(h.managed, r.ID) {
		return
	}
	setRegionFlag(&h.managed, r.ID, true)
	// Only materialized pages can be already placed; untouched ones are
	// TierNone and would be skipped anyway.
	r.EachPage(func(p *vm.Page) {
		if p.Tier == vm.TierNone || h.info(p.ID) != nil {
			return
		}
		pi := h.track(p)
		h.pol.PagePlaced(pi)
		h.tracker.PageIn(pi)
	})
}

// Managed reports whether r is under HeMem management (either because it
// was mapped large or because growth tracking promoted it).
func (h *HeMem) Managed(r *vm.Region) bool {
	if regionFlag(h.managed, r.ID) {
		return true
	}
	if regionFlag(h.released, r.ID) {
		return false
	}
	return r.Size() >= h.cfg.LargeAllocThreshold && !regionFlag(h.pinned, r.ID)
}

// PinRegion marks a region as pinned to the fastest tier: its pages are
// always allocated from it and never demoted. This is HeMem's
// per-application flexibility at work — the paper's priority FlexKVS
// instance keeps all of its key-value pairs in DRAM this way (§5.2.2,
// Table 4).
func (h *HeMem) PinRegion(r *vm.Region) {
	setRegionFlag(&h.pinned, r.ID, true)
}

// Release undoes all tracking for region r: its pages leave the FIFO
// lists and the page table (their slots are zeroed, and a window with no
// tracked slot left is freed). It implements machine.Releaser, backing
// machine.Machine.Unmap, which has already cancelled the region's
// in-flight migrations and whose vm teardown then returns the committed
// bytes of every tier to the free pools.
func (h *HeMem) Release(r *vm.Region) {
	if regionFlag(h.released, r.ID) {
		return
	}
	setRegionFlag(&h.released, r.ID, true)
	// Untouched pages were never tracked — the sparse walk covers
	// everything Release must undo.
	r.EachPage(func(p *vm.Page) {
		if pi := h.info(p.ID); pi != nil {
			h.tracker.PageOut(pi)
			h.pol.PageOut(pi)
			h.pages.release(p.ID)
		}
	})
	setRegionFlag(&h.pinned, r.ID, false)
	setRegionFlag(&h.managed, r.ID, false)
}

// NVMUsed returns committed NVM bytes.
func (h *HeMem) NVMUsed() int64 { return h.Used(vm.TierNVM) }

// Used returns the committed bytes on tier t (including in-flight
// migrations charged to their destination): the machine's ledger.
func (h *HeMem) Used(t vm.Tier) int64 { return h.m.Committed(t) }

// PageIn implements machine.Manager: the userfaultfd page-missing path.
// Pinned and small regions stay in the fastest tier untracked; large
// regions are managed, walking the chain fastest-first until a tier has
// room (§3.3). The slowest migratable tier accepts the page
// unconditionally unless swap is enabled, in which case overflow lands on
// the swap tier.
// Offline tiers are skipped everywhere (admission control: a tier being
// drained must not accept fresh pages); with nothing offline the walks
// are identical to the historical fixed-chain ones.
func (h *HeMem) PageIn(p *vm.Page) {
	ps := h.m.Cfg.PageSize
	as := h.m.AS
	r := as.RegionOf(p.ID)
	fastest := h.chain[h.firstOnline()]
	if regionFlag(h.pinned, r.ID) {
		as.SetTier(p, fastest)
		return
	}
	last := h.lastOnline()
	// First-touch placement on a tier is gated by the owner's hard cap;
	// the slowest tier still accepts overflow unconditionally, as a page
	// must land somewhere.
	o := r.Owner()
	if r.Size() < h.cfg.LargeAllocThreshold && !regionFlag(h.managed, r.ID) {
		// Kernel-managed small allocation: keep in fast memory if at
		// all possible; overflow walks the chain and the slowest online
		// tier takes the page unconditionally (the kernel path never
		// swaps).
		for i := 0; i < last; i++ {
			if !h.offlineAt(i) && h.free(i) >= ps && h.capAllows(o, h.chain[i]) {
				as.SetTier(p, h.chain[i])
				return
			}
		}
		as.SetTier(p, h.chain[last])
		return
	}
	pi := h.track(p)
	want := fastest
	if h.cfg.PlaceFunc != nil {
		want = h.cfg.PlaceFunc(p)
	}
	// A placement hint outside the chain (or on the swap tier) starts
	// the walk at the slowest migratable tier, matching the historical
	// "anything not DRAM goes to NVM" behavior.
	start := last
	if r := h.rankOf(want); r >= 0 {
		start = r
	}
	for i := start; i < last; i++ {
		if !h.offlineAt(i) && h.free(i) >= ps && h.capAllows(o, h.chain[i]) {
			as.SetTier(p, h.chain[i])
			h.pol.PagePlaced(pi)
			h.tracker.PageIn(pi)
			return
		}
	}
	slowest := h.chain[last]
	if !h.cfg.EnableSwap || h.swapTier == vm.TierNone || h.free(last) >= ps {
		as.SetTier(p, slowest)
		h.pol.PagePlaced(pi)
		h.tracker.PageIn(pi)
		return
	}
	as.SetTier(p, h.swapTier)
	h.pol.PagePlaced(pi)
	h.tracker.PageIn(pi)
}

// OnQuantum implements machine.Manager: one quantum of tracker
// observation work (for PEBS, draining the sample buffer at its bounded
// rate and classifying each record through the policy).
func (h *HeMem) OnQuantum(now, dt int64) {
	h.tracker.Poll(now, dt)
}

// ActiveThreads implements machine.Manager.
func (h *HeMem) ActiveThreads() float64 { return backgroundThreads }

// inHotList reports whether pi currently sits on a hot list.
func (h *HeMem) inHotList(pi *PageInfo) bool {
	l := h.pages.listOf(pi)
	return l != nil && l.hot
}

// hotList returns the hot queue for pages resident on tier t. Hot
// swap-tier pages queue on the slowest migratable tier's hot list: the
// swap-in policy moves them up before the promotion scan considers them
// for the faster tiers.
func (h *HeMem) hotList(t vm.Tier) *List {
	if r := h.rankOf(t); r >= 0 {
		return &h.hot[r]
	}
	return &h.hot[len(h.hot)-1]
}

// coldList returns the cold queue for pages resident on tier t.
func (h *HeMem) coldList(t vm.Tier) *List {
	if r := h.rankOf(t); r >= 0 {
		return &h.cold[r]
	}
	if t == h.swapTier && h.swapTier != vm.TierNone {
		return h.swapCold
	}
	return &h.cold[len(h.cold)-1]
}

// tick is the policy-interval timer body: tracker housekeeping, the
// shared budget/backlog/evacuation preamble, then the active policy's
// migration decisions.
func (h *HeMem) tick(now int64) {
	h.tracker.Tick(now)
	budget := int64(sim.GBps(migRateGBps) * float64(policyInterval))
	// Keep the queue bounded: don't outrun the migrator.
	if backlog := int64(h.m.Migrator.QueuedBytes()); backlog >= budget {
		return
	}
	// Offline-tier evacuation runs first and even under the NoMigration
	// ablation: an offline tier's pages are unreachable, so draining
	// them is correctness, not placement optimization.
	if h.m.AnyTierOffline() {
		budget = h.evacuate(budget)
	}
	if h.cfg.NoMigration {
		return
	}
	h.pol.Tick(now, budget)
}

// migrateTick is the shared migration mechanism (§3.3), generalized down
// the tier chain: keep each tier's free watermark by demoting its
// coldest pages to the next slower tier, run the optional swap layer
// between the slowest migratable tier and the swap device, then promote
// hot pages up every link — write-heavy first — exchanging against cold
// pages when the faster tier is full. If a tier has neither free space
// nor cold pages, its hot set exceeds capacity and migration across that
// link stops. Policies call it from Tick once their hot/cold queues
// reflect the latest classification.
// The loops walk the online chain positions (activePositions), so an
// offline tier drops out of every link and its neighbours pair up
// directly; with nothing offline the walk is the identity 0..last and
// the loops behave exactly as the fixed-neighbour version did.
func (h *HeMem) migrateTick(budget int64) {
	ps := h.m.Cfg.PageSize
	act := h.activePositions()
	lastA := len(act) - 1

	// Watermark: force eviction when a tier's free space dips below its
	// target so new allocations keep landing in fast memory. Fastest
	// first; the slowest online migratable tier has no slower neighbor
	// to evict to (the swap layer below handles its headroom).
	for ai := 0; ai < lastA; ai++ {
		i, down := act[ai], act[ai+1]
		for h.free(i) < h.freeTarget[i] && budget > 0 {
			victim := h.popColdVictim(i)
			if victim == nil {
				// No cold data: evict from the back of the hot list
				// ("HeMem migrates random data to NVM", §3.3).
				victim = h.popHotBackVictim(i)
				if victim == nil {
					break
				}
			}
			h.demote(victim, h.chain[down])
			budget -= ps
		}
	}

	if h.cfg.EnableSwap && h.swapTier != vm.TierNone {
		// Swap work gets at most half the tick budget so promotion is
		// never starved by disk churn.
		half := budget / 2
		spent := half - h.swapPolicy(half, act[lastA])
		budget -= spent
	}

	// Promote hot pages up each link while faster slots exist, fastest
	// link first.
	for ai := 0; ai < lastA; ai++ {
		i, down := act[ai], act[ai+1]
		for budget > 0 {
			cand := h.promoteCandidate(down, h.chain[i])
			if cand == nil {
				break
			}
			if h.free(i) >= h.freeTarget[i]+ps {
				h.hot[down].Remove(cand)
				h.promote(cand, h.chain[i])
				budget -= ps
				continue
			}
			victim := h.popColdVictim(i)
			if victim == nil {
				// Hot set ≥ tier capacity: stop migrating (§3.3).
				break
			}
			h.hot[down].Remove(cand)
			h.demote(victim, h.chain[down])
			h.promote(cand, h.chain[i])
			budget -= 2 * ps
		}
	}
}

// free returns uncommitted bytes at chain position i.
func (h *HeMem) free(i int) int64 { return h.caps[i] - h.m.Committed(h.chain[i]) }

// dramFree returns uncommitted bytes on the fastest tier.
func (h *HeMem) dramFree() int64 { return h.free(0) }

// swapPolicy runs the optional swap-tier policy (§3.4) between the
// slowest online migratable tier (chain position last, passed by the
// policy tick) and the swap device: swap in any swapped-out pages that
// traffic has reached (their accesses fault synchronously, so getting
// them off disk dominates everything else), and keep headroom on that
// tier by swapping its coldest pages out.
func (h *HeMem) swapPolicy(budget int64, last int) int64 {
	ps := h.m.Cfg.PageSize
	slowest := h.chain[last]
	// Swap-in: walk sets with live traffic and swapped-out pages.
	for si, set := range h.m.RateSets() {
		r := h.m.Rates(set)
		if r.ReadRate+r.WriteRate == 0 || set.Count(h.swapTier) == 0 {
			continue
		}
		for budget > 0 && set.Count(h.swapTier) > 0 {
			if h.free(last) < h.freeTarget[last]+ps {
				// Exchange: push a cold page out to make room.
				victim := h.cold[last].PopFront()
				if victim == nil || !h.m.Migrator.Enqueue(victim.Page, h.swapTier) {
					if victim != nil {
						h.cold[last].PushBack(victim)
					}
					break
				}
				h.stats.SwapOuts++
				budget -= ps
			}
			p := h.pickSwapped(si, set)
			if p == nil {
				break
			}
			if h.m.Migrator.Enqueue(p, slowest) {
				h.stats.SwapIns++
				budget -= ps
			} else {
				break
			}
		}
	}
	// Swap-out: keep headroom by evicting the coldest pages of the
	// slowest migratable tier.
	for h.free(last) < h.freeTarget[last] && budget > 0 {
		victim := h.cold[last].PopFront()
		if victim == nil {
			break
		}
		if h.m.Migrator.Enqueue(victim.Page, h.swapTier) {
			h.stats.SwapOuts++
			budget -= ps
		} else {
			h.cold[last].PushBack(victim)
			break
		}
	}
	return budget
}

// pickSwapped returns a non-migrating swap-tier-resident page of set. si
// is the set's index in the machine's rate-set order, which keys the
// per-set round-robin cursor.
func (h *HeMem) pickSwapped(si int, set *vm.PageSet) *vm.Page {
	n := set.Len()
	for si >= len(h.diskCursor) {
		h.diskCursor = append(h.diskCursor, 0)
	}
	cur := h.diskCursor[si]
	for i := 0; i < n; i++ {
		p := set.Page((cur + i) % n)
		if p.Tier == h.swapTier && !p.Migrating() {
			h.diskCursor[si] = (cur + i + 1) % n
			return p
		}
	}
	return nil
}

// promote enqueues a move to the faster tier dst, which commits its space
// there.
func (h *HeMem) promote(pi *PageInfo, dst vm.Tier) {
	if h.m.Migrator.Enqueue(pi.Page, dst) {
		h.stats.Promotions++
	} else {
		h.hotList(pi.Page.Tier).PushBack(pi)
	}
}

// demote enqueues a move to the slower tier dst, which releases the faster
// tier's space.
func (h *HeMem) demote(pi *PageInfo, dst vm.Tier) {
	if h.m.Migrator.Enqueue(pi.Page, dst) {
		h.stats.Demotions++
	} else {
		h.coldList(pi.Page.Tier).PushBack(pi)
	}
}

// OnMigrated implements machine.MigrationObserver: the policy places the
// landed page on the list matching its (possibly cooled) state.
func (h *HeMem) OnMigrated(p *vm.Page) {
	pi := h.info(p.ID)
	if pi == nil {
		return
	}
	h.pol.OnMigrated(pi)
}

// OnMigrationFailed implements machine.MigrationFailureObserver: a
// migration abandoned after exhausting its retries leaves the page in its
// source tier (the machine has already returned the space committed at
// enqueue time), so the page goes back on the list matching its current
// state.
func (h *HeMem) OnMigrationFailed(p *vm.Page, dst vm.Tier) {
	pi := h.info(p.ID)
	if pi == nil {
		return
	}
	h.pol.Requeue(pi)
}

// OnNVMUncorrectable implements machine.FaultHandler: a page whose frame
// took an uncorrectable media error is evacuated immediately to the next
// faster tier in the chain via an urgent promotion that jumps the
// migration queue and cannot be aborted. If the faster tier cannot be
// committed the page stays on its freshly remapped frame. Pages already
// on the fastest tier (or outside the chain) have nowhere faster to go.
func (h *HeMem) OnNVMUncorrectable(p *vm.Page) {
	pi := h.info(p.ID)
	if pi == nil || p.Migrating() {
		return
	}
	r := h.rankOf(p.Tier)
	if r <= 0 {
		return
	}
	// Walk to the nearest online faster tier (the direct neighbour when
	// nothing is offline).
	up := r - 1
	for up >= 0 && h.offlineAt(up) {
		up--
	}
	if up < 0 {
		return
	}
	dst := h.chain[up]
	h.pages.unlink(pi)
	if h.m.Migrator.EnqueueUrgent(p, dst) {
		h.stats.Promotions++
		h.m.FaultCounters().EmergencyPromotions++
		return
	}
	h.pol.Requeue(pi)
}

// HotBytes returns the bytes currently on the hot list of tier t.
func (h *HeMem) HotBytes(t vm.Tier) int64 {
	return int64(h.hotList(t).Len()) * h.m.Cfg.PageSize
}

// ColdBytes returns the bytes currently on the cold list of tier t.
func (h *HeMem) ColdBytes(t vm.Tier) int64 {
	return int64(h.coldList(t).Len()) * h.m.Cfg.PageSize
}

// DRAMUsed returns committed DRAM bytes.
func (h *HeMem) DRAMUsed() int64 { return h.Used(vm.TierDRAM) }

func (h *HeMem) String() string {
	var b strings.Builder
	b.WriteString("hemem{")
	for i, t := range h.chain {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s hot=%d cold=%d", strings.ToLower(t.String()), h.hot[i].Len(), h.cold[i].Len())
	}
	fmt.Fprintf(&b, ", clock=%d}", h.clock)
	return b.String()
}
