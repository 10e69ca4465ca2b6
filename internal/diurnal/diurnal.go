// Package diurnal is a phase-scheduled workload for TB-scale machines:
// traffic alternates between idle spans and bursts over page windows of a
// huge mapping, on a repeating daily schedule. It is the companion of
// vm's sparse metadata: only the windows a burst touches ever
// materialize page metadata, so a 1 TB mapping costs memory proportional
// to the touched fraction.
//
// The workload faults windows in through Machine.TouchRange on first
// entry to a phase: the burst's working set pages in on demand, not via
// a whole-region warm.
package diurnal

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/vm"
)

// Phase is one span of the repeating schedule. A zero-width window is an
// idle phase: threads run but move no bytes.
type Phase struct {
	// Duration of the phase in sim-ns. A phase takes effect on the
	// first step that starts at or after its boundary, so keep it a
	// multiple of the machine quantum for phases to start on time.
	Duration int64
	// WindowLo and WindowHi bound the page window touched by the phase,
	// as fractions of the region [0, 1). Lo == Hi means idle. Phases
	// whose windows cover the same pages share one traffic set; windows
	// that overlap otherwise are invalid, since a page is in at most one
	// set.
	WindowLo, WindowHi float64
}

// pageWindow returns the burst's page window [lo, hi) in a region of n
// pages: the fractions scaled down to whole pages, at least one page.
func (ph Phase) pageWindow(n int) (lo, hi int) {
	lo = int(ph.WindowLo * float64(n))
	hi = int(ph.WindowHi * float64(n))
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// Config describes the workload.
type Config struct {
	// Name labels the region and traffic sets (default "diurnal").
	Name string
	// WorkingSet is the mapped size (e.g. 1 TB).
	WorkingSet int64
	// Threads is the application thread count (default 16).
	Threads int
	// Phases is the repeating schedule; it must contain at least one
	// phase with positive duration.
	Phases []Phase
}

// readBytes is what one burst op reads: a 64-byte cache line. A burst
// writes nothing.
const readBytes = 64

// Workload runs the schedule on a machine.
type Workload struct {
	cfg    Config
	m      *machine.Machine
	region *vm.Region

	phaseIdx int
	phaseEnd int64
	comps    []machine.Component

	// windows caches each burst window's set: a window is faulted in
	// and its PageSet built once, on the first entry to a phase over it;
	// later phases over the same window and later days reuse it.
	windows []window

	// activeOps counts ops completed during burst phases only (idle
	// "ops" are compute spins, not memory work); obsStart/obsTime give
	// ResetScore semantics like the other drivers.
	activeOps float64
	obsStart  float64
	lastNow   int64
	obsTime   int64
	faulted   int
}

// window is one burst window's pages and the set over them.
type window struct {
	lo, hi int
	set    *vm.PageSet
}

// Validate reports the first invalid field of c. Zero Threads means its
// default, so only a negative count fails, plus an empty working set or
// schedule, a phase of no duration, a window that is not a sub-range of
// [0, 1] (NaN bounds included), a working set of
// more than math.MaxInt32 pages of pageSize bytes (the machine's page
// size; PageIDs are int32), two burst windows whose pages overlap
// without being the same, and more distinct burst windows than a region
// has page sets (vm.MaxRegionSets).
func (c Config) Validate(pageSize int64) error {
	switch {
	case c.WorkingSet <= 0:
		return fmt.Errorf("diurnal: WorkingSet %d must be positive", c.WorkingSet)
	case c.Threads < 0:
		return fmt.Errorf("diurnal: negative Threads %d", c.Threads)
	case len(c.Phases) == 0:
		return fmt.Errorf("diurnal: empty phase schedule")
	}
	for i, ph := range c.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("diurnal: phase %d Duration %d must be positive", i, ph.Duration)
		}
		if !(0 <= ph.WindowLo && ph.WindowLo <= ph.WindowHi && ph.WindowHi <= 1) {
			return fmt.Errorf("diurnal: phase %d window [%v, %v) is not inside [0, 1]", i, ph.WindowLo, ph.WindowHi)
		}
	}
	if err := vm.CheckMapping(pageSize, c.WorkingSet); err != nil {
		return fmt.Errorf("diurnal: %w", err)
	}
	return c.checkWindows(int(vm.PagesFor(c.WorkingSet, pageSize)))
}

// checkWindows reports two burst windows of a region of n pages that
// overlap without being the same, or more distinct windows than the
// region has page sets.
func (c Config) checkWindows(n int) error {
	type burst struct{ lo, hi, phase int }
	var bursts []burst
	for i, ph := range c.Phases {
		if ph.WindowHi > ph.WindowLo {
			lo, hi := ph.pageWindow(n)
			bursts = append(bursts, burst{lo, hi, i})
		}
	}
	slices.SortFunc(bursts, func(a, b burst) int {
		return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi), cmp.Compare(a.phase, b.phase))
	})
	distinct := 0
	for i, b := range bursts {
		if i > 0 {
			if p := bursts[i-1]; p.lo == b.lo && p.hi == b.hi {
				continue
			} else if p.hi > b.lo {
				return fmt.Errorf("diurnal: phases %d and %d have burst windows over pages [%d, %d) and [%d, %d), which overlap without being the same",
					p.phase, b.phase, p.lo, p.hi, b.lo, b.hi)
			}
		}
		distinct++
	}
	if distinct > vm.MaxRegionSets {
		return fmt.Errorf("diurnal: %d distinct burst windows, more than the %d page sets a region holds", distinct, vm.MaxRegionSets)
	}
	return nil
}

// New maps the working set on m and registers the workload. No pages are
// touched until the first burst phase begins. It panics with Validate's
// message, before mapping anything, on an invalid cfg.
func New(m *machine.Machine, cfg Config) *Workload {
	if err := cfg.Validate(m.Cfg.PageSize); err != nil {
		panic(err.Error())
	}
	if cfg.Name == "" {
		cfg.Name = "diurnal"
	}
	if cfg.Threads == 0 {
		cfg.Threads = 16
	}
	d := &Workload{cfg: cfg, m: m}
	d.region = m.AS.Map(cfg.Name, cfg.WorkingSet)
	d.phaseIdx = 0
	d.phaseEnd = m.Clock.Now() + cfg.Phases[0].Duration
	d.lastNow = m.Clock.Now()
	d.enterPhase(0)
	m.AddWorkload(d)
	return d
}

// Region returns the mapped region.
func (d *Workload) Region() *vm.Region { return d.region }

// rollTo advances the schedule to cover instant now. Entering a burst
// phase faults its window in (first entry only) and swaps the traffic
// component; entering an idle phase drops it.
func (d *Workload) rollTo(now int64) {
	for now >= d.phaseEnd {
		d.phaseIdx = (d.phaseIdx + 1) % len(d.cfg.Phases)
		d.phaseEnd += d.cfg.Phases[d.phaseIdx].Duration
		d.enterPhase(d.phaseIdx)
	}
}

// enterPhase installs phase i's traffic.
func (d *Workload) enterPhase(i int) {
	ph := d.cfg.Phases[i]
	if ph.WindowHi <= ph.WindowLo {
		d.comps = d.comps[:0]
		return
	}
	d.comps = append(d.comps[:0], machine.Component{
		Set:       d.windowSet(i),
		Share:     1,
		ReadBytes: readBytes,
		Pattern:   mem.Random,
	})
}

// windowSet returns the set over phase i's burst window, faulting the
// window in and building the set, named after phase i, on first use.
func (d *Workload) windowSet(i int) *vm.PageSet {
	lo, hi := d.cfg.Phases[i].pageWindow(d.region.NumPages())
	for _, w := range d.windows {
		if w.lo == lo && w.hi == hi {
			return w.set
		}
	}
	d.faulted += d.m.TouchRange(d.region, lo, hi)
	ids := make([]vm.PageID, 0, hi-lo)
	for j := lo; j < hi; j++ {
		ids = append(ids, d.region.PageID(j))
	}
	set := d.m.AS.NewPageSet(fmt.Sprintf("%s-w%d", d.cfg.Name, i), ids)
	d.windows = append(d.windows, window{lo, hi, set})
	return set
}

// Name implements machine.Workload.
func (d *Workload) Name() string { return d.cfg.Name }

// Threads implements machine.Workload.
func (d *Workload) Threads() int { return d.cfg.Threads }

// Components implements machine.Workload: it rolls the schedule to the
// current instant first, so phase transitions take effect on the step
// that starts at the boundary. rollTo is idempotent at a fixed clock, so
// repeated calls within a step return the same components.
func (d *Workload) Components() []machine.Component {
	d.rollTo(d.m.Clock.Now())
	return d.comps
}

// OnOps implements machine.Workload: burst ops count toward the score,
// idle spins do not.
func (d *Workload) OnOps(now int64, ops float64, opTime float64) {
	if len(d.comps) > 0 {
		d.activeOps += ops
	}
	d.lastNow = now
}

// Done implements machine.Workload; the schedule repeats forever.
func (d *Workload) Done() bool { return false }

// ResetScore starts a fresh measurement window.
func (d *Workload) ResetScore() {
	d.obsStart = d.activeOps
	d.obsTime = d.m.Clock.Now()
}

// Score returns burst ops per second since the last ResetScore.
func (d *Workload) Score() float64 {
	elapsed := d.m.Clock.Now() - d.obsTime
	if elapsed <= 0 {
		return 0
	}
	return (d.activeOps - d.obsStart) / (float64(elapsed) / 1e9)
}

// ActiveOps returns cumulative burst ops.
func (d *Workload) ActiveOps() float64 { return d.activeOps }

// FaultedPages returns how many pages the schedule has faulted in.
func (d *Workload) FaultedPages() int { return d.faulted }
