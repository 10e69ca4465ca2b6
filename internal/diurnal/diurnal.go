// Package diurnal is a phase-scheduled workload for TB-scale machines:
// traffic alternates between idle spans and bursts over page windows of a
// huge mapping, on a repeating daily schedule. It is the companion of the
// machine's adaptive quantum — during the idle phases the contention
// solver's inputs are constant, so an event-driven run skips from policy
// tick to policy tick instead of grinding fixed quanta — and of vm's
// sparse metadata: only the windows a burst touches ever materialize
// page metadata, so a 1 TB mapping costs memory proportional to the
// touched fraction.
//
// The workload faults windows in through Machine.TouchRange on first
// entry to a phase (the burst's working set pages in on demand, not via
// a whole-region warm), and implements machine.PhaseHinter so the
// adaptive horizon never crosses a phase boundary.
package diurnal

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/vm"
)

// Phase is one span of the repeating schedule. A zero-width window is an
// idle phase: threads run but move no bytes.
type Phase struct {
	// Duration of the phase in sim-ns. Keep it a multiple of the machine
	// quantum so fixed and adaptive runs cross boundaries on the same
	// step starts.
	Duration int64
	// WindowLo and WindowHi bound the page window touched by the phase,
	// as fractions of the region [0, 1). Lo == Hi means idle.
	WindowLo, WindowHi float64
}

// Config describes the workload.
type Config struct {
	// Name labels the region and traffic sets (default "diurnal").
	Name string
	// WorkingSet is the mapped size (e.g. 1 TB).
	WorkingSet int64
	// Threads is the application thread count (default 16).
	Threads int
	// ReadBytes and WriteBytes are moved per op during a burst: reads
	// default to 64 bytes, and a zero WriteBytes writes nothing.
	ReadBytes, WriteBytes int64
	// Phases is the repeating schedule; it must contain at least one
	// phase with positive duration.
	Phases []Phase
}

// Workload runs the schedule on a machine.
type Workload struct {
	cfg    Config
	m      *machine.Machine
	region *vm.Region

	phaseIdx int
	phaseEnd int64
	comps    []machine.Component

	// sets caches each phase's window set: a window is faulted in and
	// its PageSet built once, on first entry; later days reuse it.
	sets []*vm.PageSet

	// activeOps counts ops completed during burst phases only (idle
	// "ops" are compute spins, not memory work); obsStart/obsTime give
	// ResetScore semantics like the other drivers.
	activeOps float64
	obsStart  float64
	lastNow   int64
	obsTime   int64
	faulted   int
}

// Validate reports the first invalid field of c. Zero Threads and
// ReadBytes mean their defaults, so only negative values fail, plus an
// empty working set or schedule, a phase of no duration, and a window
// that is not a sub-range of [0, 1] (NaN bounds included).
func (c Config) Validate() error {
	switch {
	case c.WorkingSet <= 0:
		return fmt.Errorf("diurnal: WorkingSet %d must be positive", c.WorkingSet)
	case c.Threads < 0:
		return fmt.Errorf("diurnal: negative Threads %d", c.Threads)
	case c.ReadBytes < 0:
		return fmt.Errorf("diurnal: negative ReadBytes %d", c.ReadBytes)
	case c.WriteBytes < 0:
		return fmt.Errorf("diurnal: negative WriteBytes %d", c.WriteBytes)
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
	return nil
}

// New maps the working set on m and registers the workload. No pages are
// touched until the first burst phase begins. It panics with Validate's
// message, before mapping anything, on an invalid cfg.
func New(m *machine.Machine, cfg Config) *Workload {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Name == "" {
		cfg.Name = "diurnal"
	}
	if cfg.Threads == 0 {
		cfg.Threads = 16
	}
	if cfg.ReadBytes == 0 {
		cfg.ReadBytes = 64
	}
	d := &Workload{cfg: cfg, m: m}
	d.region = m.AS.Map(cfg.Name, cfg.WorkingSet)
	d.sets = make([]*vm.PageSet, len(cfg.Phases))
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
	set := d.sets[i]
	if set == nil {
		n := d.region.NumPages()
		lo := int(ph.WindowLo * float64(n))
		hi := int(ph.WindowHi * float64(n))
		if hi <= lo {
			hi = lo + 1
		}
		d.faulted += d.m.TouchRange(d.region, lo, hi)
		pages := make([]*vm.Page, 0, hi-lo)
		for j := lo; j < hi; j++ {
			pages = append(pages, d.region.PageAt(j))
		}
		set = vm.NewPageSet(fmt.Sprintf("%s-w%d", d.cfg.Name, i), pages)
		d.sets[i] = set
	}
	d.comps = append(d.comps[:0], machine.Component{
		Set:        set,
		Share:      1,
		ReadBytes:  d.cfg.ReadBytes,
		WriteBytes: d.cfg.WriteBytes,
		Pattern:    mem.Random,
	})
}

// Name implements machine.Workload.
func (d *Workload) Name() string { return d.cfg.Name }

// Threads implements machine.Workload.
func (d *Workload) Threads() int { return d.cfg.Threads }

// Components implements machine.Workload: it rolls the schedule to the
// current instant first, so phase transitions take effect on the step
// that starts at the boundary. It is a pure accessor within a step
// (rollTo is idempotent at a fixed clock), as the adaptive pre-pass
// requires.
func (d *Workload) Components() []machine.Component {
	d.rollTo(d.m.Clock.Now())
	return d.comps
}

// NextPhaseChange implements machine.PhaseHinter. It rolls the schedule
// first (idempotent at a fixed clock) so a boundary that coincides with
// now reports the following one.
func (d *Workload) NextPhaseChange(now int64) (int64, bool) {
	d.rollTo(now)
	return d.phaseEnd, true
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
