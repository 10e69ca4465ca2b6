// Package memmode implements Intel Optane DC "memory mode" (§2.4): all
// data physically lives in NVM, and DRAM acts as a hardware-managed
// direct-mapped cache with 64 B lines. Software sees one flat memory and
// has no control; there is no hot/cold tracking, no policy, and no CPU
// overhead — but conflict misses grow as occupancy rises, every miss
// fetches a 256 B NVM media block, and dirty evictions write NVM
// constantly (the wear behaviour of Figure 16).
//
// The cache is modelled analytically. Workload traffic decomposes into
// disjoint zones (one per component page set). Cache-set composition is
// Poisson per zone (n_z/S lines expected per set), and within a set the
// cached line is the most recently accessed, so a specific line of zone z
// is resident with probability E[a_z / (a_z + Σ_j k_j·a_j)], estimated by
// deterministic Monte Carlo over set compositions. For a single uniform
// zone this reduces to the closed form (1−e^{−λ})/λ — the unit tests check
// the estimator against it.
package memmode

import (
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

const lineSize = 64

// zone is the cache model's view of one component page set.
type zone struct {
	set   *vm.PageSet
	lines float64 // cacheable lines in the zone
	// readLineRate/writeLineRate are line accesses per ns (smoothed).
	readLineRate  float64
	writeLineRate float64
	pattern       mem.Pattern

	hit   float64 // P(access to a line of this zone hits)
	wb    float64 // expected dirty-victim writebacks per miss
	valid bool

	// seenGen marks the last ObserveTraffic pass that updated this zone's
	// rates, so repeated components over the same set within one pass
	// accumulate while a new pass overwrites — without a per-quantum
	// "seen" map allocation.
	seenGen uint64

	// Incremental scratch-row cache: modelRead/modelWrite stamp the
	// traffic inputs the cached row was derived from, so refreshModel
	// skips recomputing perLineRate/dirtyFrac/NewPoissonPrep (the exp(-λ)
	// transcendental) for zones whose rates are unchanged since the last
	// pass. The cached values are pure functions of the inputs, so reuse
	// is byte-identical to recomputation.
	modelCached bool
	modelActive bool // cached perLineRate > 0: the zone joins the scratch table
	modelRead   float64
	modelWrite  float64
	modelRow    zoneModel
}

// zoneModel is one zone's invariant state for a refreshModel pass,
// flattened out of the zone structs so the Monte-Carlo inner loop walks a
// compact slice, touches no maps, and calls no transcendentals: the
// per-line rate and dirty fraction are hoisted, and the Poisson mean
// λ = lines/cacheSets is prepped once so each of the zones × MCSamples
// draws reuses the cached exp(-λ) instead of recomputing it.
type zoneModel struct {
	z       *zone
	perLine float64
	dirty   float64
	prep    sim.PoissonPrep
}

// perLineRate is the access rate of one line of the zone.
func (z *zone) perLineRate() float64 {
	if z.lines == 0 {
		return 0
	}
	return (z.readLineRate + z.writeLineRate) / z.lines
}

// dirtyFrac is the probability a cached line of this zone is dirty.
func (z *zone) dirtyFrac() float64 {
	t := z.readLineRate + z.writeLineRate
	if t == 0 {
		return 0
	}
	// A line that receives any writes is dirty essentially always once
	// cached; approximate by the write share of traffic, saturating
	// quickly.
	f := z.writeLineRate / t * 2
	if f > 1 {
		f = 1
	}
	return f
}

// MemoryMode is the hardware tiering manager.
type MemoryMode struct {
	m   *machine.Machine
	rng *sim.Rand

	// devDRAM and devNVM are the cache and backing device indices,
	// resolved from the machine's tier table at Attach (memory mode is
	// inherently two-tier: DRAM cache over NVM).
	devDRAM, devNVM machine.Dev

	cacheSets float64
	zones     map[*vm.PageSet]*zone
	// order lists zones in first-observed order. The model must never
	// iterate the zones map: map order would randomize the RNG draw
	// sequence and float summation order in refreshModel, making MM
	// results differ run to run.
	order []*zone
	// scratch is the reusable flattened zone table refreshModel builds
	// each pass (see zoneModel).
	scratch []zoneModel
	// gen counts ObserveTraffic passes; see zone.seenGen.
	gen       uint64
	lastModel int64
	// rowsBuilt/rowsReused count scratch-row recomputations vs cache hits
	// across refreshModel passes (see zone.modelCached), for tests and
	// reports.
	rowsBuilt  int64
	rowsReused int64
	// ModelRefresh controls how often the Monte-Carlo occupancy model is
	// recomputed (simulated ns).
	ModelRefresh int64
	// MCSamples is the number of set compositions sampled per zone.
	MCSamples int
}

// New returns a memory-mode manager.
func New() *MemoryMode {
	return &MemoryMode{
		zones:        make(map[*vm.PageSet]*zone),
		ModelRefresh: 50 * sim.Millisecond,
		MCSamples:    2000,
	}
}

// Name implements machine.Manager.
func (mm *MemoryMode) Name() string { return "MM" }

// Attach implements machine.Manager.
func (mm *MemoryMode) Attach(m *machine.Machine) {
	mm.m = m
	mm.rng = sim.NewRand(m.Cfg.Seed ^ 0x3153)
	mm.cacheSets = float64(m.CapacityOf(vm.TierDRAM) / lineSize)
	mm.lastModel = -1
	var ok bool
	if mm.devDRAM, ok = m.DevOf(vm.TierDRAM); !ok {
		panic("memmode: machine has no DRAM tier")
	}
	if mm.devNVM, ok = m.DevOf(vm.TierNVM); !ok {
		panic("memmode: machine has no NVM tier")
	}
}

// PageIn implements machine.Manager: in memory mode everything is backed
// by NVM; the DRAM cache is invisible to placement.
func (mm *MemoryMode) PageIn(p *vm.Page) { p.SetTier(vm.TierNVM) }

// OnQuantum implements machine.Manager.
func (mm *MemoryMode) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager: pure hardware, zero cores.
func (mm *MemoryMode) ActiveThreads() float64 { return 0 }

// ObserveTraffic implements machine.TrafficObserver: update zone rates and
// periodically refresh the occupancy model.
func (mm *MemoryMode) ObserveTraffic(now int64, comps []machine.Component, occRates []float64) {
	mm.gen++
	for i := range comps {
		c := &comps[i]
		z, ok := mm.zones[c.Set]
		if !ok {
			z = &zone{set: c.Set, lines: float64(c.Set.Bytes() / lineSize)}
			mm.zones[c.Set] = z
			mm.order = append(mm.order, z)
		}
		z.pattern = c.Pattern
		rl := occRates[i] * linesOf(c.ReadBytes)
		wl := occRates[i] * linesOf(c.WriteBytes)
		if z.seenGen == mm.gen {
			z.readLineRate += rl
			z.writeLineRate += wl
		} else {
			z.readLineRate = rl
			z.writeLineRate = wl
			z.seenGen = mm.gen
		}
	}
	if mm.lastModel < 0 || now-mm.lastModel >= mm.ModelRefresh {
		mm.refreshModel()
		mm.lastModel = now
	}
}

func linesOf(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	n := (bytes + lineSize - 1) / lineSize
	return float64(n)
}

// refreshModel recomputes per-zone hit rates and writeback expectations by
// Monte Carlo over cache-set compositions. The active zones are flattened
// into a reusable scratch table with their per-line rate, dirty fraction,
// and prepped Poisson constants, so the sampling loops below perform only
// multiplies, divides, and RNG draws. Scratch rows are cached per zone and
// rebuilt only when the zone's traffic inputs changed since the last pass
// (steady workloads reuse nearly every row); the cached values are pure
// functions of the inputs, so reuse is byte-identical to recomputation.
//
// The Monte Carlo visits target zones in order on the single mm.rng
// stream: the draw sequence and float summation order are exactly those
// of the original unflattened model, keeping seeded MM results
// bit-identical.
func (mm *MemoryMode) refreshModel() {
	zs := mm.scratch[:0]
	for _, z := range mm.order {
		if !z.modelCached || z.readLineRate != z.modelRead || z.writeLineRate != z.modelWrite {
			pl := z.perLineRate()
			z.modelActive = pl > 0
			if z.modelActive {
				z.modelRow = zoneModel{
					z:       z,
					perLine: pl,
					dirty:   z.dirtyFrac(),
					prep:    sim.NewPoissonPrep(z.lines / mm.cacheSets),
				}
			}
			z.modelCached = true
			z.modelRead = z.readLineRate
			z.modelWrite = z.writeLineRate
			mm.rowsBuilt++
		} else {
			mm.rowsReused++
		}
		if z.modelActive {
			zs = append(zs, z.modelRow)
		}
	}
	mm.scratch = zs
	for ti := range zs {
		mcTarget(zs, ti, mm.rng, mm.MCSamples)
	}
}

// mcTarget runs the Monte-Carlo sampling loop for one target zone of the
// scratch table, drawing set compositions from rng.
func mcTarget(zs []zoneModel, ti int, rng *sim.Rand, samples int) {
	target := &zs[ti]
	a := target.perLine
	var hitSum, wbSum, missSum float64
	for s := 0; s < samples; s++ {
		// Competing line-rate mass in this cache set.
		var compete float64
		var rateByZone [16]float64
		for j := range zs {
			k := rng.PoissonCached(zs[j].prep)
			r := float64(k) * zs[j].perLine
			compete += r
			if j < len(rateByZone) {
				rateByZone[j] = r
			}
		}
		// The target line hits iff it was the last access to
		// its set: probability a/(a+compete). (Poissonization:
		// the other lines of its own zone are already in
		// compete.)
		hit := a / (a + compete)
		hitSum += hit
		// On a miss the victim is the currently cached line,
		// which belongs to zone j with probability ∝ its rate
		// mass and writes back if dirty. Condition on the miss
		// actually happening: sets with no competitors produce
		// (almost) no misses and no victims.
		if compete > 0 {
			miss := 1 - hit
			missSum += miss
			var wb float64
			for j := range zs {
				if j < len(rateByZone) {
					wb += rateByZone[j] / compete * zs[j].dirty
				}
			}
			wbSum += miss * wb
		}
	}
	target.z.hit = hitSum / float64(samples)
	if missSum > 0 {
		target.z.wb = wbSum / missSum
	} else {
		target.z.wb = 0
	}
	target.z.valid = true
}

// ModelRowStats reports how many scratch-table rows refreshModel rebuilt
// vs reused from the per-zone cache across all passes so far, for tests
// and reports.
func (mm *MemoryMode) ModelRowStats() (built, reused int64) {
	return mm.rowsBuilt, mm.rowsReused
}

// HitRate returns the modelled hit rate for the zone backing set, for
// tests and reports.
func (mm *MemoryMode) HitRate(set *vm.PageSet) float64 {
	if z, ok := mm.zones[set]; ok && z.valid {
		return z.hit
	}
	return 1
}

// ComponentBranches implements machine.Brancher: an access either hits the
// DRAM cache or misses to NVM (plus the fill), which is what spreads MM's
// latency tail in Tables 3 and 4.
func (mm *MemoryMode) ComponentBranches(c machine.Component) []machine.CostBranch {
	hit := 1.0
	if z, ok := mm.zones[c.Set]; ok && z.valid {
		hit = z.hit
	}
	dramTime := mm.m.CostIn(c, vm.TierDRAM)
	nvmTime := mm.m.CostIn(c, vm.TierNVM)
	return []machine.CostBranch{
		{Prob: hit, Time: dramTime},
		{Prob: 1 - hit, Time: nvmTime},
	}
}

// ComponentCost implements machine.CostModeler: price accesses through the
// DRAM cache.
func (mm *MemoryMode) ComponentCost(c machine.Component) machine.CompCost {
	var cc machine.CompCost
	if c.Set == nil || c.Set.Len() == 0 {
		cc.Time = 1
		return cc
	}
	dram, nvm := mm.m.DRAM, mm.m.NVM
	z, ok := mm.zones[c.Set]
	hit, wb := 1.0, 0.0
	if ok && z.valid {
		hit, wb = z.hit, z.wb
	}
	miss := 1 - hit

	cc.Time += mm.m.TLBWalkCost(c.Set, c.Pattern)

	// Reads: hits from DRAM; misses fetch a 256 B NVM media block, fill
	// DRAM, and evict (writeback if dirty).
	if c.ReadBytes > 0 {
		lines := linesOf(c.ReadBytes)
		deps := float64(c.Deps)
		if deps <= 0 {
			deps = 1
		}
		perDep := c.ReadBytes / int64(deps)
		cc.Time += deps * hit * dram.AccessTime(mem.Read, c.Pattern, perDep)
		cc.Time += deps * miss * nvm.AccessTime(mem.Read, c.Pattern, perDep)

		dramBytes := hit * float64(dram.MediaBytes(c.ReadBytes))
		nvmBytes := miss * lines * float64(nvm.MediaBytes(lineSize))
		fill := miss * lines * lineSize
		wbBytes := miss * wb * lines * float64(nvm.MediaBytes(lineSize))

		cc.Bytes[mm.devDRAM][mem.Read] += dramBytes
		cc.Bytes[mm.devNVM][mem.Read] += nvmBytes
		cc.Bytes[mm.devDRAM][mem.Write] += fill
		cc.Bytes[mm.devNVM][mem.Write] += wbBytes

		cc.Util[mm.devDRAM][mem.Read] += dramBytes / dram.PeakFor(mem.Read, c.Pattern, c.ReadBytes)
		cc.Util[mm.devNVM][mem.Read] += nvmBytes / nvm.PeakFor(mem.Read, c.Pattern, lineSize)
		cc.Util[mm.devDRAM][mem.Write] += fill / dram.PeakFor(mem.Write, c.Pattern, lineSize)
		cc.Util[mm.devNVM][mem.Write] += wbBytes / nvm.PeakFor(mem.Write, mem.Random, lineSize)
	}

	// Writes: stores land in the DRAM cache. If the component also reads
	// the same lines (read-modify-write), the store always hits the
	// just-fetched line; otherwise it write-allocates on a miss.
	if c.WriteBytes > 0 {
		lines := linesOf(c.WriteBytes)
		storeMiss := miss
		if c.ReadBytes > 0 {
			storeMiss = 0
		}
		dramBytes := float64(dram.MediaBytes(c.WriteBytes))
		cc.Time += dramBytes / dram.Spec.Stream[mem.Write]
		cc.Bytes[mm.devDRAM][mem.Write] += dramBytes
		cc.Util[mm.devDRAM][mem.Write] += dramBytes / dram.PeakFor(mem.Write, c.Pattern, c.WriteBytes)

		if storeMiss > 0 {
			fetch := storeMiss * lines * float64(nvm.MediaBytes(lineSize))
			wbBytes := storeMiss * wb * lines * float64(nvm.MediaBytes(lineSize))
			cc.Time += storeMiss * nvm.AccessTime(mem.Read, c.Pattern, lineSize)
			cc.Bytes[mm.devNVM][mem.Read] += fetch
			cc.Bytes[mm.devNVM][mem.Write] += wbBytes
			cc.Util[mm.devNVM][mem.Read] += fetch / nvm.PeakFor(mem.Read, c.Pattern, lineSize)
			cc.Util[mm.devNVM][mem.Write] += wbBytes / nvm.PeakFor(mem.Write, mem.Random, lineSize)
		}
	}
	return cc
}
