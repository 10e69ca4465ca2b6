// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (§5), each regenerating the
// same rows or series the paper reports, on the simulated testbed.
//
// Experiments run in two sizes: the default "quick" parameters finish in
// seconds of real time; Full parameters approach the paper's run lengths.
// Absolute numbers come from the calibrated device models; the harness is
// judged on shape — who wins, by what rough factor, and where crossovers
// fall (see EXPERIMENTS.md for the side-by-side record).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/nimble"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/xmem"
)

// Opts controls an experiment run.
type Opts struct {
	// Full selects paper-scale run lengths instead of quick ones.
	Full bool
	// Seed perturbs workload layout; 0 uses the default.
	Seed uint64
	// Jobs is the sweep worker pool size; 0 uses GOMAXPROCS. Output is
	// byte-identical at every value (see sweep.go).
	Jobs int
	// Progress, when non-nil, receives per-cell completion narration
	// ("cell 13/27 fig5/ws=64GB done in 0.4s"). It is separate from the
	// experiment's table output, which stays canonical.
	Progress io.Writer
	// Tracker and Policy, when non-empty, restrict the trackers
	// experiment's cross-product to a single registered tracker/policy
	// (the CI smoke matrix runs one pair per job). Other experiments
	// ignore them.
	Tracker string
	Policy  string
	// Quantum overrides the machine step quantum in sim-ns; 0 keeps the
	// machine default (1 ms).
	Quantum int64
	// Adaptive runs machines on the event-driven adaptive-quantum loop.
	// Output is byte-identical to the fixed loop's (TestExperimentGoldens
	// runs rows with it on).
	Adaptive bool
	// Tenants overrides the fleet experiment's tenants per machine; 0
	// keeps the scale default. Other experiments ignore it.
	Tenants int
	// QoS restricts the fleet experiment's tenant mix to a single class
	// ("gold", "silver", "besteffort"); empty keeps the mixed fleet.
	QoS string
}

// machineConfig is the default machine config with the run's quantum and
// adaptive-loop overrides applied. With zero-valued overrides it is
// machine.DefaultConfig() exactly, so default-mode output is untouched.
func (o Opts) machineConfig() machine.Config {
	mc := machine.DefaultConfig()
	if o.Quantum > 0 {
		mc.Quantum = o.Quantum
	}
	mc.AdaptiveQuantum = o.Adaptive
	return mc
}

func (o Opts) seed() uint64 {
	if o.Seed == 0 {
		return 17
	}
	return o.Seed
}

// jobs resolves the worker pool size.
func (o Opts) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// scale returns quick unless Full is set.
func (o Opts) scale(quick, full int64) int64 {
	if o.Full {
		return full
	}
	return quick
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Opts)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(w io.Writer, o Opts)) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// IDs returns every registered experiment id, sorted. It is the single
// inventory behind All, ByID's error message, and the CLI's -list.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for k := range registry {
		ids = append(ids, k)
	}
	sort.Strings(ids)
	return ids
}

// All returns every registered experiment in id order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// ByID returns the experiment with the given id. On a miss the error
// lists every valid id, sorted.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// table starts an aligned output table.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Manager constructors used across experiments, keyed by report label.
func newHeMem() machine.Manager    { return core.New(core.DefaultConfig()) }
func newMM() machine.Manager       { return memmode.New() }
func newNimble() machine.Manager   { return nimble.New() }
func newDRAM() machine.Manager     { return xmem.DRAMFirst() }
func newNVM() machine.Manager      { return xmem.NVMOnly() }
func newPTAsync() machine.Manager  { return ptscan.New(ptscan.HeMemPTAsync()) }
func newPTSync() machine.Manager   { return ptscan.New(ptscan.HeMemPTSync()) }
func newScanOnly() machine.Manager { return ptscan.New(ptscan.ScanOnly()) }

// gupsRun builds a machine+GUPS pair, warms, runs, and returns the
// steady-window score in GUPS.
func gupsRun(o Opts, mgr machine.Manager, cfg gups.Config, warm, measure int64) float64 {
	m := machine.New(o.machineConfig(), mgr)
	g := gups.New(m, cfg)
	m.Warm()
	m.Run(warm)
	g.ResetScore()
	m.Run(measure)
	return g.Score()
}

// gb formats a byte count in GB.
func gb(b int64) string { return fmt.Sprintf("%d", b/sim.GB) }
