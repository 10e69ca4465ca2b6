// Package memmode implements Intel Optane DC "memory mode" (§2.4): all
// data physically lives in NVM, and DRAM acts as a hardware-managed
// direct-mapped cache with 64 B lines. Software sees one flat memory and
// has no control; there is no hot/cold tracking, no policy, and no CPU
// overhead — but conflict misses grow as occupancy rises, every miss
// fetches a 256 B NVM media block, and dirty evictions write NVM
// constantly (the wear behaviour of Figure 16).
//
// The cache is modelled analytically. Workload traffic decomposes into
// disjoint zones (one per component page set) with per-line rates r_j.
// Cache-set composition is Poisson per zone (K_j ~ Poisson(λ_j), λ_j =
// n_j/S lines per set), and within a set the cached line is the most
// recently accessed, so a line of a zone with per-line rate a is resident
// with probability E[a/(a+Σ_j r_j·K_j)]. Its closed form is the integral
// ∫₀^∞ a·e^{-at}·Π_j exp(λ_j(e^{-r_j t} − 1)) dt, evaluated by deterministic
// quadrature (closedForm): the model draws no random numbers. For a single
// zone it reduces to (1−e^{−λ})/λ, which the unit tests check.
package memmode

import (
	"math"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

const lineSize = 64

// zone is the cache model's view of one component page set.
type zone struct {
	lines float64 // cacheable lines in the zone
	// readLineRate/writeLineRate are line accesses per ns (smoothed).
	readLineRate  float64
	writeLineRate float64

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
	// skips recomputing perLineRate/dirtyFrac/λ for zones whose rates are
	// unchanged since the last pass, and skips the whole pass when no row
	// changed. The cached values are pure functions of the inputs, so reuse
	// is byte-identical to recomputation.
	modelCached bool
	modelActive bool // cached perLineRate > 0: the zone joins the scratch table
	modelRead   float64
	modelWrite  float64
	modelRow    zoneModel
}

// zoneModel is one zone's row of a refreshModel pass, flattened out of the
// zone structs so the quadrature walks a compact slice and touches no maps:
// the closed form's inputs r (perLine), d (dirty) and λ = lines/cacheSets,
// cached per zone, then the pass's scratch — e^{-r·t} at the current node
// and the row's three integrals as the target zone.
type zoneModel struct {
	z                      *zone
	perLine, dirty, lambda float64
	decay, hit, miss, wb   float64
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

var _ machine.CostModel = (*MemoryMode)(nil)

// MemoryMode is the hardware tiering manager.
type MemoryMode struct {
	m *machine.Machine

	// devDRAM and devNVM are the cache and backing device indices,
	// resolved from the machine's tier table at Attach (memory mode is
	// inherently two-tier: DRAM cache over NVM).
	devDRAM, devNVM machine.Dev

	cacheSets float64
	zones     map[*vm.PageSet]*zone
	// order lists zones in first-observed order. The model must never
	// iterate the zones map: map order would randomize the float
	// summation order in refreshModel, making MM results differ run to
	// run.
	order []*zone
	// scratch is the reusable flattened zone table refreshModel builds
	// each pass (see zoneModel); it grows to the zone count and is reused.
	scratch []zoneModel
	// gen counts ObserveTraffic passes; see zone.seenGen.
	gen       uint64
	lastModel int64
	// rowsBuilt/rowsReused count scratch-row recomputations vs cache hits
	// across refreshModel passes (see zone.modelCached), for tests and
	// reports.
	rowsBuilt  int64
	rowsReused int64
	// passesRun/passesSkipped count closed-form passes run vs skipped.
	passesRun, passesSkipped int64
}

// modelRefresh is how often the occupancy model is recomputed.
const modelRefresh = 50 * sim.Millisecond

// New returns a memory-mode manager.
func New() *MemoryMode {
	return &MemoryMode{zones: make(map[*vm.PageSet]*zone)}
}

// Name implements machine.Manager.
func (mm *MemoryMode) Name() string { return "MM" }

// Attach implements machine.Manager.
func (mm *MemoryMode) Attach(m *machine.Machine) {
	mm.m = m
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
func (mm *MemoryMode) PageIn(p *vm.Page) { mm.m.AS.SetTier(p, vm.TierNVM) }

// OnQuantum implements machine.Manager.
func (mm *MemoryMode) OnQuantum(now, dt int64) {}

// ActiveThreads implements machine.Manager: pure hardware, zero cores.
func (mm *MemoryMode) ActiveThreads() float64 { return 0 }

// ObserveTraffic implements machine.CostModel: update zone rates and
// periodically refresh the occupancy model.
func (mm *MemoryMode) ObserveTraffic(now int64, comps []machine.Component, occRates []float64) {
	mm.gen++
	for i := range comps {
		c := &comps[i]
		z, ok := mm.zones[c.Set]
		if !ok {
			z = &zone{lines: float64(c.Set.Bytes() / lineSize)}
			mm.zones[c.Set] = z
			mm.order = append(mm.order, z)
		}
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
	if mm.lastModel < 0 || now-mm.lastModel >= modelRefresh {
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

// refreshModel recomputes per-zone hit rates and writeback expectations
// from the closed form over a reusable scratch table of the active zones.
// Rows are cached per zone and rebuilt only when the zone's traffic inputs
// changed; the model is a pure function of the rows, so a pass in which no
// row was rebuilt would reproduce the current results and is skipped.
func (mm *MemoryMode) refreshModel() {
	zs := mm.scratch[:0]
	changed := false
	for _, z := range mm.order {
		if !z.modelCached || z.readLineRate != z.modelRead || z.writeLineRate != z.modelWrite {
			pl := z.perLineRate()
			z.modelActive = pl > 0
			if z.modelActive {
				z.modelRow = zoneModel{
					z:       z,
					perLine: pl,
					dirty:   z.dirtyFrac(),
					lambda:  z.lines / mm.cacheSets,
				}
			}
			z.modelCached = true
			z.modelRead = z.readLineRate
			z.modelWrite = z.writeLineRate
			mm.rowsBuilt++
			changed = true
		} else {
			mm.rowsReused++
		}
		if z.modelActive {
			zs = append(zs, z.modelRow)
		}
	}
	mm.scratch = zs
	if !changed {
		mm.passesSkipped++
		return
	}
	mm.passesRun++
	closedForm(zs)
}

// closedForm sets every row's zone's hit rate and writebacks per miss,
// taking the row's rate as a and M(t) = Π_j exp(λ_j(e^{-r_j t} − 1)):
//
//	hit = ∫ a·e^{-at}·M dt,   miss = ∫ e^{-at}·M·Σ_j r_j λ_j e^{-r_j t} dt,
//	wb  = ∫ e^{-at}·M·Σ_j d_j r_j λ_j e^{-r_j t} dt / miss   (DESIGN.md §13).
//
// miss equals 1 − hit but is integrated itself so wb stays exact when
// misses are rare. All rows share one composite-Simpson grid in ln t over
// [1e-6/max r, 60/min r]; its lower end must follow the fastest rate, or a
// fast zone's mass falls below the grid.
func closedForm(zs []zoneModel) {
	const n = 256 // Simpson intervals (even)
	if len(zs) == 0 {
		return
	}
	lo, hi := zs[0].perLine, zs[0].perLine
	for i := range zs {
		r := &zs[i]
		r.hit, r.miss, r.wb = 0, 0, 0
		lo, hi = min(lo, r.perLine), max(hi, r.perLine)
	}
	t0 := 1e-6 / hi
	h := math.Log(60/lo/t0) / n
	step, t := math.Exp(h), t0
	for k := 0; k <= n; k++ {
		// Simpson weight 1, 4, 2, …, 4, 1 times the Jacobian dt = t·du; the
		// first node also carries the head [0, t0], where every integrand
		// is flat to 1e-6.
		w := h / 3 * t
		switch {
		case k == 0:
			w += t0
		case k < n:
			w *= float64(2 + 2*(k%2))
		}
		var logM, missRate, wbRate float64
		for j := range zs {
			r := &zs[j]
			r.decay = math.Exp(-r.perLine * t)
			logM += r.lambda * (r.decay - 1)
			c := r.perLine * r.lambda * r.decay
			missRate += c
			wbRate += r.dirty * c
		}
		wm := w * math.Exp(logM)
		for i := range zs {
			r := &zs[i]
			x := wm * r.decay
			r.hit += x * r.perLine
			r.miss += x * missRate
			r.wb += x * wbRate
		}
		t *= step
	}
	for i := range zs {
		r := &zs[i]
		r.z.hit = r.hit
		r.z.wb = 0
		if r.miss > 0 {
			r.z.wb = r.wb / r.miss
		}
		r.z.valid = true
	}
}

// ModelRowStats reports how many scratch-table rows refreshModel rebuilt
// vs reused from the per-zone cache across all passes so far, for tests
// and reports.
func (mm *MemoryMode) ModelRowStats() (built, reused int64) {
	return mm.rowsBuilt, mm.rowsReused
}

// CostEpoch implements machine.CostModel. Prices and branches read the
// zones' hit and writeback figures, which only a closed-form pass changes,
// so the epoch is the count of passes run.
func (mm *MemoryMode) CostEpoch() uint64 { return uint64(mm.passesRun) }

// ModelPasses reports how many refreshModel passes evaluated the closed
// form vs skipped it because no scratch row changed.
func (mm *MemoryMode) ModelPasses() (run, skipped int64) {
	return mm.passesRun, mm.passesSkipped
}

// HitRate returns the modelled hit rate for the zone backing set, for
// tests and reports.
func (mm *MemoryMode) HitRate(set *vm.PageSet) float64 {
	if z, ok := mm.zones[set]; ok && z.valid {
		return z.hit
	}
	return 1
}

// ComponentBranches implements machine.CostModel: an access either hits the
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

// ComponentCost implements machine.CostModel: price accesses through the
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
