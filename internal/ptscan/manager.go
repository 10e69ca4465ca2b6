package ptscan

import (
	"github.com/tieredmem/hemem/internal/dma"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Options configures a scanning tier manager.
type Options struct {
	// Name labels the manager in reports ("HeMem-PT-Async", "Nimble").
	Name string
	// Async runs scanning on its own thread so passes are not delayed by
	// migration (the paper's M.Async); otherwise one thread serializes
	// scan → migrate → scan (M.Sync, and Nimble's kernel thread).
	Async bool
	// UseDMA selects the I/OAT copy engine; Nimble uses copy threads.
	UseDMA bool
	// CopyThreads is the software-copy thread count when !UseDMA.
	CopyThreads int
	// Granularity is the scanned page-table leaf size (default 4 KB).
	Granularity int64
	// HotCut: zones with accessed fraction ≥ HotCut are promotion
	// candidates; ColdCut: DRAM pages of zones below it are evictable.
	HotCut, ColdCut float64
	// MigRateCap bounds migration bandwidth.
	MigRateCap float64
	// FreeDRAMTarget keeps DRAM headroom for allocations.
	FreeDRAMTarget int64
	// PolicyInterval is the async-mode migration tick.
	PolicyInterval int64
	// MaxCycleBytes caps migration enqueued per scan cycle (sync mode).
	MaxCycleBytes int64
	// BGThreads is the constant background core consumption (the
	// scanning/policy threads); migration copy threads are counted by
	// the migrator while active.
	BGThreads float64
	// MigrationEnabled disables all movement when false (Figure 8's
	// "PT Scan" bar: scanning overhead in isolation).
	MigrationEnabled bool
	// WritePriority promotes dirty zones first.
	WritePriority bool
	// PlaceFunc, when set, overrides DRAM-first placement on first touch
	// (Figure 8's manual-placement configurations).
	PlaceFunc func(p *vm.Page) vm.Tier
}

// HeMemPTAsync returns options for HeMem with asynchronous page-table
// scanning in place of PEBS (Figures 8, 9, 15, 16).
func HeMemPTAsync() Options {
	return Options{
		Name: "HeMem-PT-Async", Async: true, UseDMA: true,
		Granularity: 4 * 1024, HotCut: 0.5, ColdCut: 0.5,
		MigRateCap: sim.GBps(10), FreeDRAMTarget: sim.GB,
		PolicyInterval: 10 * sim.Millisecond, MaxCycleBytes: 4 * sim.GB,
		BGThreads: 2.5, MigrationEnabled: true, WritePriority: true,
	}
}

// HeMemPTSync returns options for the fully serialized variant: one thread
// scans and migrates in turn (Figure 8's M.Sync).
func HeMemPTSync() Options {
	o := HeMemPTAsync()
	o.Name = "HeMem-PT-Sync"
	o.Async = false
	o.BGThreads = 1.5
	return o
}

// ScanOnly returns options for Figure 8's "PT Scan" bar: page-table
// scanning runs (with its shootdown cost) but nothing migrates.
func ScanOnly() Options {
	o := HeMemPTAsync()
	o.Name = "HeMem-PT-ScanOnly"
	o.MigrationEnabled = false
	return o
}

// Manager is a scanning-based tier manager.
type Manager struct {
	opt     Options
	m       *machine.Machine
	scanner *Scanner

	rng        *sim.Rand
	est        map[*vm.PageSet]SetScan
	estOrder   []*vm.PageSet
	cursors    map[*vm.PageSet]int
	dramUsed   int64
	lastPolicy int64
	scans      int64
}

// New builds a scanning manager from options.
func New(opt Options) *Manager {
	if opt.Granularity == 0 {
		opt = HeMemPTAsync()
	}
	return &Manager{
		opt:     opt,
		est:     make(map[*vm.PageSet]SetScan),
		cursors: make(map[*vm.PageSet]int),
	}
}

// Name implements machine.Manager.
func (g *Manager) Name() string { return g.opt.Name }

// Scans returns the number of completed scan passes.
func (g *Manager) Scans() int64 { return g.scans }

// Estimate returns the manager's current scan estimate for a zone.
func (g *Manager) Estimate(set *vm.PageSet) (SetScan, bool) {
	e, ok := g.est[set]
	return e, ok
}

// EstimatedHotBytes reports how much memory the scanner currently
// considers hot — the paper's over-estimation metric (M.Sync considers
// nearly all of 512 GB hot; M.Async up to 300 GB).
func (g *Manager) EstimatedHotBytes() int64 {
	var b float64
	for _, set := range g.estOrder {
		e := g.est[set]
		if e.FracAccessed >= g.opt.HotCut {
			b += e.FracAccessed * float64(set.Bytes())
		}
	}
	return int64(b)
}

// Attach implements machine.Manager.
func (g *Manager) Attach(m *machine.Machine) {
	g.m = m
	g.rng = sim.NewRand(m.Cfg.Seed ^ 0x9751)
	g.scanner = NewScanner(m, g.opt.Granularity)
	m.Migrator.RateCap = g.opt.MigRateCap
	if g.opt.UseDMA {
		m.Migrator.SetBackend(machine.DMABackend{Engine: dma.New(dma.DefaultConfig())})
	} else {
		ct := g.opt.CopyThreads
		if ct <= 0 {
			ct = 4
		}
		m.Migrator.SetBackend(machine.ThreadBackend{Copier: dma.NewThreadCopier(ct)})
	}
	g.scheduleScan(m.Clock.Now())
	if g.opt.Async && g.opt.MigrationEnabled {
		var tick func(now int64)
		tick = func(now int64) {
			g.policy(now)
			m.Events.Schedule(now+g.opt.PolicyInterval, tick)
		}
		m.Events.Schedule(m.Clock.Now()+g.opt.PolicyInterval, tick)
	}
}

// scheduleScan queues the completion of the next scan pass. Passes take at
// least one quantum so an empty address space cannot spin the event loop.
func (g *Manager) scheduleScan(now int64) {
	pass := g.scanner.PassTime()
	if pass < g.m.Cfg.Quantum {
		pass = g.m.Cfg.Quantum
	}
	g.m.Events.Schedule(now+pass, g.scanDone)
}

// scanDone finishes a pass: refresh estimates; in sync mode, run migration
// inline and delay the next pass by the time the migrations take on the
// shared thread (the mechanism that starves Nimble's statistics).
func (g *Manager) scanDone(now int64) {
	g.scans++
	for _, res := range g.scanner.Complete() {
		if _, seen := g.est[res.Set]; !seen {
			g.estOrder = append(g.estOrder, res.Set)
		}
		g.est[res.Set] = res
	}
	delay := int64(0)
	if !g.opt.Async && g.opt.MigrationEnabled {
		enq := g.policy(now)
		if tp := g.m.Migrator.Backend().Throughput(); tp > 0 {
			delay = int64(float64(enq) / tp)
		}
	}
	g.scheduleScan(now + delay)
}

// PageIn implements machine.Manager: DRAM-first allocation, like the
// kernel would do for a NUMA node ordering local before far memory.
func (g *Manager) PageIn(p *vm.Page) {
	ps := g.m.Cfg.PageSize
	want := vm.TierDRAM
	if g.opt.PlaceFunc != nil {
		want = g.opt.PlaceFunc(p)
	}
	if want == vm.TierDRAM && g.dramUsed+ps <= g.m.CapacityOf(vm.TierDRAM) {
		g.dramUsed += ps
		p.SetTier(vm.TierDRAM)
	} else {
		p.SetTier(vm.TierNVM)
	}
}

// OnQuantum implements machine.Manager.
func (g *Manager) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager.
func (g *Manager) ActiveThreads() float64 { return g.opt.BGThreads }

// OnMigrated implements machine.MigrationObserver (placement bookkeeping
// happens eagerly at enqueue time; nothing to do on completion).
func (g *Manager) OnMigrated(p *vm.Page) {}

// OnMigrationFailed implements machine.MigrationFailureObserver: undo the
// DRAM space committed (or released) at enqueue time when a migration is
// abandoned after exhausting its retries.
func (g *Manager) OnMigrationFailed(p *vm.Page, dst vm.Tier) {
	ps := g.m.Cfg.PageSize
	switch {
	case dst == vm.TierDRAM:
		g.dramUsed -= ps // failed promotion
	case dst == vm.TierNVM && p.Tier == vm.TierDRAM:
		g.dramUsed += ps // failed demotion
	}
}

// policy makes one round of migration decisions from the zone estimates
// and returns the bytes enqueued. Budgeting: async mode uses the rate cap
// times the elapsed interval; sync mode uses MaxCycleBytes.
func (g *Manager) policy(now int64) int64 {
	ps := g.m.Cfg.PageSize
	var budget int64
	if g.opt.Async {
		elapsed := now - g.lastPolicy
		g.lastPolicy = now
		budget = int64(g.opt.MigRateCap * float64(elapsed))
		if backlog := int64(g.m.Migrator.QueuedBytes()); backlog >= budget {
			return 0
		}
	} else {
		budget = g.opt.MaxCycleBytes
		if backlog := int64(g.m.Migrator.QueuedBytes()); backlog >= budget {
			return 0
		}
	}

	// Order zones: eviction candidates coldest-first, promotion
	// candidates dirtiest/hottest-first. Accessed/dirty bits are binary,
	// so after a long pass distinct zones collapse onto the same
	// quantized key — the scanner genuinely cannot tell them apart. Ties
	// are then broken by picking weighted by zone size, never by the
	// order the workload happened to declare its sets.
	zones := make([]SetScan, 0, len(g.estOrder))
	for _, s := range g.estOrder {
		zones = append(zones, g.est[s])
	}

	var enq int64
	// Maintain free-DRAM headroom by evicting cold-zone pages.
	for g.dramFree() < g.opt.FreeDRAMTarget && budget > 0 {
		ez := g.chooseEvict(zones, 1<<30)
		if ez == nil || !g.demoteFrom(ez) {
			break
		}
		budget -= ps
		enq += ps
	}
	// Promote accessed zones' NVM pages, swapping against colder DRAM.
	for budget > 0 {
		pz := g.choosePromote(zones)
		if pz == nil {
			break
		}
		if g.dramFree() < g.opt.FreeDRAMTarget+ps {
			// Swap only against a zone that looks clearly colder
			// (two quantization levels): with binary accessed bits
			// saturating under load, a zero-margin swap degenerates
			// into bursts of same-temperature churn whenever the
			// estimate flickers.
			ez := g.chooseEvict(zones, g.key(g.estOf(pz))-1)
			if ez == nil || !g.demoteFrom(ez) {
				break // no colder DRAM: stop migrating
			}
			budget -= ps
			enq += ps
		}
		if g.promoteFrom(pz) {
			budget -= ps
			enq += ps
		} else {
			break
		}
	}
	return enq
}

// key quantizes a zone's scan estimate into a priority: dirty-dominant
// when write priority is on, coarsened to what binary bits can resolve.
func (g *Manager) key(e SetScan) int {
	acc := int(e.FracAccessed*8 + 0.5)
	if !g.opt.WritePriority {
		return acc
	}
	return int(e.FracDirty*8+0.5)*16 + acc
}

// estOf returns the current estimate for the zone containing set.
func (g *Manager) estOf(set *vm.PageSet) SetScan { return g.est[set] }

// choosePromote picks a zone to promote from: among the zones with the
// highest key that still have NVM pages and look accessed, weighted by
// NVM page count.
func (g *Manager) choosePromote(zones []SetScan) *vm.PageSet {
	best := -1
	for _, z := range zones {
		if z.FracAccessed < g.opt.HotCut || z.Set.Count(vm.TierNVM) == 0 {
			continue
		}
		if k := g.key(z); k > best {
			best = k
		}
	}
	if best < 0 {
		return nil
	}
	return g.weighted(zones, func(z SetScan) int {
		if z.FracAccessed < g.opt.HotCut || g.key(z) != best {
			return 0
		}
		return z.Set.Count(vm.TierNVM)
	})
}

// chooseEvict picks a zone to evict from: among zones with DRAM pages and
// key strictly below limit, the lowest key wins; ties weighted by DRAM
// page count.
func (g *Manager) chooseEvict(zones []SetScan, limit int) *vm.PageSet {
	best := limit
	found := false
	for _, z := range zones {
		if z.Set.Count(vm.TierDRAM) == 0 {
			continue
		}
		if k := g.key(z); k < best {
			best = k
			found = true
		} else if k == best && k < limit {
			found = true
		}
	}
	if !found {
		return nil
	}
	return g.weighted(zones, func(z SetScan) int {
		if g.key(z) != best {
			return 0
		}
		return z.Set.Count(vm.TierDRAM)
	})
}

// weighted picks a zone with probability proportional to weight.
func (g *Manager) weighted(zones []SetScan, weight func(SetScan) int) *vm.PageSet {
	total := 0
	for _, z := range zones {
		total += weight(z)
	}
	if total == 0 {
		return nil
	}
	pick := g.rng.Intn(total)
	for _, z := range zones {
		w := weight(z)
		if pick < w {
			return z.Set
		}
		pick -= w
	}
	return nil
}

// dramFree returns uncommitted DRAM bytes.
func (g *Manager) dramFree() int64 { return g.m.CapacityOf(vm.TierDRAM) - g.dramUsed }

// promoteFrom moves one NVM page of set to DRAM.
func (g *Manager) promoteFrom(set *vm.PageSet) bool {
	p := g.pick(set, vm.TierNVM)
	if p == nil || !g.m.Migrator.Enqueue(p, vm.TierDRAM) {
		return false
	}
	g.dramUsed += g.m.Cfg.PageSize
	return true
}

// demoteFrom moves one DRAM page of set to NVM.
func (g *Manager) demoteFrom(set *vm.PageSet) bool {
	p := g.pick(set, vm.TierDRAM)
	if p == nil || !g.m.Migrator.Enqueue(p, vm.TierNVM) {
		return false
	}
	g.dramUsed -= g.m.Cfg.PageSize
	return true
}

// pick returns a non-migrating page of set in tier t, walking a persistent
// cursor (pages within a zone are statistically identical).
func (g *Manager) pick(set *vm.PageSet, t vm.Tier) *vm.Page {
	if set.Count(t) == 0 {
		return nil
	}
	n := set.Len()
	cur := g.cursors[set]
	for i := 0; i < n; i++ {
		p := set.Page((cur + i) % n)
		if p.Tier == t && !p.Migrating {
			g.cursors[set] = (cur + i + 1) % n
			return p
		}
	}
	return nil
}
