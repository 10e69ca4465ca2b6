// Package gups implements the GUPS (giga-updates-per-second)
// microbenchmark the paper uses throughout §5.1: parallel read-modify-write
// operations on 8-byte objects over a configurable working set, with an
// optional hot set taking 90% of the updates, an optional write-only
// partition (the asymmetric experiment of Table 2), and support for
// shifting the hot set mid-run (the dynamic experiment of Figure 9).
package gups

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Config parameterizes a GUPS run.
type Config struct {
	// Threads is the number of update threads (paper default: 16).
	Threads int
	// WorkingSet is the aggregate working set in bytes.
	WorkingSet int64
	// HotSet is the aggregate hot set in bytes; 0 means uniform access.
	HotSet int64
	// WriteOnlyHot makes this many bytes of the hot set write-only while
	// the rest of all memory is read-only (Table 2's skewed R/W
	// pattern). 0 disables.
	WriteOnlyHot int64
	// Seed scatters the hot set pages through the working set.
	Seed uint64
}

// hotFrac is the fraction of updates that touch the hot set, and
// objectSize the bytes each update reads and writes (§5.1: 90% of
// updates on 8-byte objects). hotFrac is typed so that 1-hotFrac rounds
// as float64 arithmetic does.
const (
	hotFrac    float64 = 0.9
	objectSize         = 8
)

// Validate reports the first invalid field of c, or nil. Zero fields
// mean their defaults (16 threads, uniform access), so only negative
// values fail, plus a hot set larger than the working set, an empty
// working set, and a working set of more than math.MaxInt32 pages of
// pageSize bytes (the machine's page size; PageIDs are int32).
func (c Config) Validate(pageSize int64) error {
	switch {
	case c.Threads < 0:
		return fmt.Errorf("gups: negative Threads %d", c.Threads)
	case c.WorkingSet <= 0:
		return fmt.Errorf("gups: WorkingSet %d must be positive", c.WorkingSet)
	case c.HotSet < 0:
		return fmt.Errorf("gups: negative HotSet %d", c.HotSet)
	case c.HotSet > c.WorkingSet:
		return fmt.Errorf("gups: HotSet %d larger than WorkingSet %d", c.HotSet, c.WorkingSet)
	case c.WriteOnlyHot < 0:
		return fmt.Errorf("gups: negative WriteOnlyHot %d", c.WriteOnlyHot)
	}
	if err := vm.CheckMapping(pageSize, c.WorkingSet); err != nil {
		return fmt.Errorf("gups: %w", err)
	}
	return nil
}

// GUPS is the workload instance.
type GUPS struct {
	cfg    Config
	region *vm.Region

	hot      *vm.PageSet // nil when uniform
	hotWr    *vm.PageSet // write-only partition of hot (Table 2)
	cold     *vm.PageSet
	comps    []machine.Component
	updates  float64
	started  int64
	lastNow  int64
	obsStart float64 // updates at last Reset, for interval scoring
	obsTime  int64
}

// New maps the working set on m and builds the access components. The hot
// set is a random, non-contiguous subset of pages ("a random set of each
// thread's objects", §5.1) so migration cannot exploit contiguity. New
// panics with Validate's message, before mapping anything, on an invalid
// cfg.
func New(m *machine.Machine, cfg Config) *GUPS {
	if err := cfg.Validate(m.Cfg.PageSize); err != nil {
		panic(err.Error())
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 16
	}
	g := &GUPS{cfg: cfg}
	g.region = m.AS.Map("gups", cfg.WorkingSet)

	if cfg.HotSet > 0 && cfg.HotSet < cfg.WorkingSet {
		pages := g.region.ShuffledPages(sim.NewRand(cfg.Seed + 0x9d5))
		nHot := int(cfg.HotSet / m.Cfg.PageSize)
		hotPages := pages[:nHot]
		if cfg.WriteOnlyHot > 0 {
			nWr := min(int(cfg.WriteOnlyHot/m.Cfg.PageSize), nHot)
			g.hotWr = m.AS.NewPageSet("gups-hot-wr", hotPages[:nWr])
			g.hot = m.AS.NewPageSet("gups-hot-rd", hotPages[nWr:])
		} else {
			g.hot = m.AS.NewPageSet("gups-hot", hotPages)
		}
		g.cold = m.AS.NewPageSet("gups-cold", pages[nHot:])
	} else {
		g.cold = m.AS.NewPageSet("gups-all", g.region.AllPages())
	}
	g.rebuild()
	m.AddWorkload(g)
	g.started = m.Clock.Now()
	return g
}

// rebuild recomputes the component list from current set sizes.
func (g *GUPS) rebuild() {
	rw := func(set *vm.PageSet, share float64) machine.Component {
		return machine.Component{
			Set: set, Share: share,
			ReadBytes: objectSize, WriteBytes: objectSize,
			Pattern: mem.Random,
		}
	}
	switch {
	case g.hot == nil && g.hotWr == nil:
		// Uniform random over the whole working set.
		g.comps = []machine.Component{rw(g.cold, 1)}
	case g.hotWr != nil:
		// Table 2: hot split into write-only and read-only halves;
		// the cold remainder is read-only.
		hotBytes := float64(g.hot.Len() + g.hotWr.Len())
		wrShare := hotFrac * float64(g.hotWr.Len()) / hotBytes
		rdShare := hotFrac * float64(g.hot.Len()) / hotBytes
		g.comps = []machine.Component{
			{Set: g.hotWr, Share: wrShare, WriteBytes: objectSize, Pattern: mem.Random},
			{Set: g.hot, Share: rdShare, ReadBytes: objectSize, Pattern: mem.Random},
			{Set: g.cold, Share: 1 - hotFrac, ReadBytes: objectSize, Pattern: mem.Random},
		}
	default:
		// hotFrac of ops hit the hot set; the rest are uniform over
		// the whole working set, which decomposes into disjoint
		// hot/cold components by size.
		total := float64(g.hot.Len() + g.cold.Len())
		uniformHot := (1 - hotFrac) * float64(g.hot.Len()) / total
		uniformCold := (1 - hotFrac) * float64(g.cold.Len()) / total
		g.comps = []machine.Component{
			rw(g.hot, hotFrac+uniformHot),
			rw(g.cold, uniformCold),
		}
	}
}

// ShiftHotSet makes bytes of the hot set cold and an equal amount of the
// cold set hot (Figure 9's dynamic hot set), preserving set sizes. A
// non-positive shift, or one on a uniform run, changes nothing.
func (g *GUPS) ShiftHotSet(bytes int64, seed uint64) {
	if g.hot == nil || g.cold == nil || bytes <= 0 {
		return
	}
	n := int(bytes / g.region.PageSize)
	if n > g.hot.Len() {
		n = g.hot.Len()
	}
	if n > g.cold.Len() {
		n = g.cold.Len()
	}
	rng := sim.NewRand(seed + 0x51f7)
	// Remove all swapped pages first so a freshly added page can never be
	// picked again within the same shift.
	fromHot := make([]vm.PageID, n)
	fromCold := make([]vm.PageID, n)
	for i := 0; i < n; i++ {
		fromHot[i] = g.hot.Remove(rng.Intn(g.hot.Len()))
		fromCold[i] = g.cold.Remove(rng.Intn(g.cold.Len()))
	}
	for i := 0; i < n; i++ {
		g.hot.Add(fromCold[i])
		g.cold.Add(fromHot[i])
	}
	g.rebuild()
}

// Name implements machine.Workload.
func (g *GUPS) Name() string { return "gups" }

// Threads implements machine.Workload.
func (g *GUPS) Threads() int { return g.cfg.Threads }

// Components implements machine.Workload.
func (g *GUPS) Components() []machine.Component { return g.comps }

// OnOps implements machine.Workload.
func (g *GUPS) OnOps(now int64, ops float64, opTime float64) {
	g.updates += ops
	g.lastNow = now
}

// Done implements machine.Workload: GUPS runs until stopped.
func (g *GUPS) Done() bool { return false }

// Updates returns completed update operations.
func (g *GUPS) Updates() float64 { return g.updates }

// Score returns giga-updates-per-second since the workload started (or
// since the last ResetScore).
func (g *GUPS) Score() float64 {
	elapsed := float64(g.lastNow - g.obsTime)
	if elapsed <= 0 {
		return 0
	}
	return (g.updates - g.obsStart) / elapsed
}

// ResetScore restarts the scoring window (after a warm-up phase).
func (g *GUPS) ResetScore() {
	g.obsStart = g.updates
	g.obsTime = g.lastNow
}

// Region returns the mapped working-set region.
func (g *GUPS) Region() *vm.Region { return g.region }

// HotPages returns the current hot page set (including the write-only
// partition if configured), or nil for uniform runs.
func (g *GUPS) HotPages() *vm.PageSet { return g.hot }

// WriteOnlyPages returns the write-only hot partition, or nil.
func (g *GUPS) WriteOnlyPages() *vm.PageSet { return g.hotWr }

func (g *GUPS) String() string {
	return fmt.Sprintf("gups{%d thr, ws=%dGB hot=%dGB}", g.cfg.Threads,
		g.cfg.WorkingSet/sim.GB, g.cfg.HotSet/sim.GB)
}
