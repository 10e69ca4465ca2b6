package ptscan

import (
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// preset is one of the four fixed scanning-manager configurations the
// constructors below build.
type preset struct {
	// name labels the manager in reports ("HeMem-PT-Async", "Nimble").
	name string
	// async runs scanning on its own thread so passes are not delayed by
	// migration (the paper's M.Async); otherwise one thread serializes
	// scan → migrate → scan (M.Sync, and Nimble's kernel thread).
	async bool
	// nimble selects Nimble's kernel mechanisms: the migrator's copy
	// threads instead of the DMA engine, kernel NUMA migration bounded
	// only by those threads (nimbleRateGBps) rather than HeMem's rate cap,
	// and no write priority (Table 2: Nimble is blind to read/write
	// asymmetry). Otherwise dirty zones are promoted first.
	nimble bool
	// bgThreads is the constant background core consumption (the
	// scanning/policy threads); copy threads are counted by the migrator.
	bgThreads float64
	// migrate is false for Figure 8's "PT Scan" bar: scanning overhead in
	// isolation, nothing moves.
	migrate bool
}

// Fixed scanning-manager parameters: every preset uses the same value.
const (
	// scanGranularity is the scanned page-table leaf size.
	scanGranularity = 4 * 1024
	// hotCut: zones with accessed fraction ≥ hotCut are promotion
	// candidates.
	hotCut = 0.5
	// freeDRAMTarget keeps DRAM headroom for allocations.
	freeDRAMTarget = 1 * sim.GB
	// policyInterval is the async-mode migration tick.
	policyInterval = 10 * sim.Millisecond
	// maxCycleBytes caps migration enqueued per scan cycle (sync mode).
	maxCycleBytes = 4 * sim.GB
	// migRateGBps is HeMem's migration rate cap (GB/s).
	migRateGBps = 10
	// nimbleRateGBps bounds Nimble's migration (GB/s): far above what its
	// copy threads sustain, so they set the pace.
	nimbleRateGBps = 100
)

// HeMemPTAsync returns HeMem with asynchronous page-table scanning in
// place of PEBS (Figures 8, 9, 15, 16).
func HeMemPTAsync() *Manager {
	return newManager(preset{name: "HeMem-PT-Async", async: true, bgThreads: 2.5, migrate: true}, nil)
}

// HeMemPTSync returns the fully serialized variant: one thread scans and
// migrates in turn (Figure 8's M.Sync).
func HeMemPTSync() *Manager {
	return newManager(preset{name: "HeMem-PT-Sync", bgThreads: 1.5, migrate: true}, nil)
}

// ScanOnly returns Figure 8's "PT Scan" bar: page-table scanning runs
// (with its shootdown cost) but nothing migrates. place chooses each
// page's tier on first touch (Figure 8's manual placement); nil means
// DRAM-first.
func ScanOnly(place func(*vm.Page) vm.Tier) *Manager {
	return newManager(preset{name: "HeMem-PT-ScanOnly", async: true, bgThreads: 2.5}, place)
}

// Nimble returns the Nimble baseline (Yan et al., ASPLOS '19) as the
// paper deploys it (§2.4, §5): NVM exposed as a far NUMA node, with a
// single kernel thread that sequentially scans page tables for
// accessed/dirty bits and then migrates pages, plus four dedicated
// migration copy threads (§5: four maximize copy throughput). Because
// scanning and migration share one thread, long migrations delay
// statistics gathering, and long scans over large memories overestimate
// the hot set — the two effects behind Nimble's losses in Figures 5, 6,
// 14 and 15.
func Nimble() *Manager {
	return newManager(preset{name: "Nimble", nimble: true, bgThreads: 1, migrate: true}, nil)
}

// Manager is a scanning-based tier manager.
type Manager struct {
	preset
	// place, when set, overrides DRAM-first placement on first touch.
	place   func(*vm.Page) vm.Tier
	m       *machine.Machine
	scanner *Scanner

	rng        *sim.Rand
	est        map[*vm.PageSet]SetScan
	estOrder   []*vm.PageSet
	cursors    map[*vm.PageSet]int
	lastPolicy int64
	scans      int64
}

// newManager builds a scanning manager from a preset and a first-touch
// placement (nil: DRAM-first).
func newManager(p preset, place func(*vm.Page) vm.Tier) *Manager {
	return &Manager{
		preset:  p,
		place:   place,
		est:     make(map[*vm.PageSet]SetScan),
		cursors: make(map[*vm.PageSet]int),
	}
}

// Name implements machine.Manager.
func (g *Manager) Name() string { return g.name }

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
		if e.FracAccessed >= hotCut {
			b += e.FracAccessed * float64(set.Bytes())
		}
	}
	return int64(b)
}

// Attach implements machine.Manager.
func (g *Manager) Attach(m *machine.Machine) {
	g.m = m
	g.rng = sim.NewRand(m.Cfg.Seed ^ 0x9751)
	g.scanner = NewScanner(m, scanGranularity)
	m.Migrator.RateCap = sim.GBps(migRateGBps)
	if g.nimble {
		m.Migrator.RateCap = sim.GBps(nimbleRateGBps)
	}
	m.Migrator.UseCopyThreads(g.nimble)
	g.scheduleScan(m.Clock.Now())
	if g.async && g.migrate {
		var tick func(now int64)
		tick = func(now int64) {
			g.policy(now)
			m.Events.Schedule(now+policyInterval, tick)
		}
		m.Events.Schedule(m.Clock.Now()+policyInterval, tick)
	}
}

// scheduleScan queues the completion of the next scan pass. Passes take at
// least one quantum so an empty address space cannot spin the event loop.
func (g *Manager) scheduleScan(now int64) {
	pass := max(g.scanner.PassTime(), machine.Quantum)
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
	if !g.async && g.migrate {
		enq := g.policy(now)
		if tp := g.m.Migrator.CopyThroughput(); tp > 0 {
			delay = int64(float64(enq) / tp)
		}
	}
	g.scheduleScan(now + delay)
}

// PageIn implements machine.Manager: DRAM-first allocation, like the
// kernel would do for a NUMA node ordering local before far memory.
func (g *Manager) PageIn(p *vm.Page) {
	want := vm.TierDRAM
	if g.place != nil {
		want = g.place(p)
	}
	if want == vm.TierDRAM && g.dramFree() >= g.m.Cfg.PageSize {
		g.m.AS.SetTier(p, vm.TierDRAM)
	} else {
		g.m.AS.SetTier(p, vm.TierNVM)
	}
}

// OnQuantum implements machine.Manager.
func (g *Manager) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager.
func (g *Manager) ActiveThreads() float64 { return g.bgThreads }

// policy makes one round of migration decisions from the zone estimates
// and returns the bytes enqueued. Budgeting: async mode uses the rate cap
// times the elapsed interval; sync mode uses maxCycleBytes.
func (g *Manager) policy(now int64) int64 {
	ps := g.m.Cfg.PageSize
	var budget int64
	if g.async {
		elapsed := now - g.lastPolicy
		g.lastPolicy = now
		budget = int64(g.m.Migrator.RateCap * float64(elapsed))
		if backlog := int64(g.m.Migrator.QueuedBytes()); backlog >= budget {
			return 0
		}
	} else {
		budget = maxCycleBytes
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
	for g.dramFree() < freeDRAMTarget && budget > 0 {
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
		if g.dramFree() < freeDRAMTarget+ps {
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
	if g.nimble {
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
		if z.FracAccessed < hotCut || z.Set.Count(vm.TierNVM) == 0 {
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
		if z.FracAccessed < hotCut || g.key(z) != best {
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

// dramFree returns uncommitted DRAM bytes, read from the machine's ledger.
func (g *Manager) dramFree() int64 {
	return g.m.CapacityOf(vm.TierDRAM) - g.m.Committed(vm.TierDRAM)
}

// promoteFrom moves one NVM page of set to DRAM.
func (g *Manager) promoteFrom(set *vm.PageSet) bool {
	p := g.pick(set, vm.TierNVM)
	return p != nil && g.m.Migrator.Enqueue(p, vm.TierDRAM)
}

// demoteFrom moves one DRAM page of set to NVM.
func (g *Manager) demoteFrom(set *vm.PageSet) bool {
	p := g.pick(set, vm.TierDRAM)
	return p != nil && g.m.Migrator.Enqueue(p, vm.TierNVM)
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
		if p.Tier == t && !p.Migrating() {
			g.cursors[set] = (cur + i + 1) % n
			return p
		}
	}
	return nil
}
