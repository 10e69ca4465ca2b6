// Package bench is the experiment harness: one experiment per
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
	"slices"
	"strings"
	"text/tabwriter"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
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
	// experiment's cross-product to one tracker/policy named in
	// core.TrackerNames/core.PolicyNames (hemem-bench -tracker/-policy).
	// Other experiments ignore them.
	Tracker string
	Policy  string
	// Tenants overrides the fleet experiment's tenants per machine; 0
	// keeps the scale default. Other experiments ignore it.
	Tenants int
	// QoS restricts the fleet experiment's tenant mix to a single class
	// ("gold", "silver", "besteffort"); empty keeps the mixed fleet.
	QoS string
}

// Validate reports the first option no experiment can honour: a
// Tracker, Policy or QoS name that is not one of the valid values, which
// the error lists, or a negative Tenants.
func (o Opts) Validate() error {
	if err := (core.Config{Tracker: o.Tracker, Policy: o.Policy}).Validate(); err != nil {
		return err
	}
	if _, ok := machine.ParseQoS(o.QoS); o.QoS != "" && !ok {
		return fmt.Errorf("unknown -qos class %q (valid: %s)", o.QoS, strings.Join(machine.QoSNames(), ", "))
	}
	if o.Tenants < 0 {
		return fmt.Errorf("-tenants must be non-negative")
	}
	return nil
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

// experiments is every experiment, in id order: the order -exp all runs
// them and -list prints them.
var experiments = []Experiment{
	{"chaos", "Extension: graceful tier degradation — CXL offline mid-workload, evacuation MTTR and degraded throughput", runChaos},
	{"ext-swap", "Extension: three-tier swapping (§3.4), working set beyond DRAM+NVM", runExtSwap},
	{"faults", "Extension: chaos soak — every fault class at once, per-class counters, evacuation MTTR and the episode log", runFaults},
	{"fig1", "Figure 1: memory access throughput scalability", runFig1},
	{"fig10", "Figure 10: PEBS sampling period sensitivity", runFig10},
	{"fig11", "Figure 11: hot memory read threshold sensitivity", runFig11},
	{"fig12", "Figure 12: memory cooling threshold sensitivity", runFig12},
	{"fig13", "Figure 13: Silo TPC-C warehouse scalability", runFig13},
	{"fig14", "Figure 14: GAP BC on 2^28 vertices (fits DRAM)", runFig14},
	{"fig15", "Figure 15: GAP BC on 2^29 vertices (exceeds DRAM)", runFig15},
	{"fig16", "Figure 16: NVM writes during BC on 2^29", runFig16},
	{"fig2", "Figure 2: throughput at 16 threads, varying access size", runFig2},
	{"fig3", "Figure 3: page table scan time", runFig3},
	{"fig5", "Figure 5: uniform GUPS vs working set size", runFig5},
	{"fig6", "Figure 6: GUPS vs hot set size (512 GB working set)", runFig6},
	{"fig7", "Figure 7: GUPS thread scalability", runFig7},
	{"fig8", "Figure 8: HeMem overhead breakdown", runFig8},
	{"fig9", "Figure 9: instantaneous GUPS under a dynamic hot set", runFig9},
	{"fleet", "Extension: datacenter fleet — machines × churning QoS tenants, per-class p99, DRAM share, migration traffic", runFleet},
	{"tab1", "Table 1: main memory technology comparison", runTab1},
	{"tab2", "Table 2: GUPS with skewed read/write pattern", runTab2},
	{"tab3", "Table 3: FlexKVS throughput and latency", runTab3},
	{"tab4", "Table 4: FlexKVS latency with priority", runTab4},
	{"tbscale", "Extension: TB-scale diurnal workload — sparse vs dense page metadata", runTBScale},
	{"tiers", "Extension: tier descriptor table — DRAM+CXL+NVM chain vs. the two-tier baseline", runTiers},
	{"trackers", "Extension: tracker × policy cross-product — PEBS vs DAMON vs idlepage under the HeMem and heat policies", runTrackers},
}

// IDs returns every experiment id, sorted. It is the single inventory
// behind ByID's error message.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// All returns every experiment in id order.
func All() []Experiment { return slices.Clone(experiments) }

// ByID returns the experiment with the given id. On a miss the error
// lists every valid id, sorted.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(IDs(), ", "))
}

// table starts an aligned output table.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Manager constructors used across experiments, keyed by report label.
func newHeMem() machine.Manager    { return core.New(core.DefaultConfig()) }
func newMM() machine.Manager       { return memmode.New() }
func newNimble() machine.Manager   { return ptscan.Nimble() }
func newDRAM() machine.Manager     { return xmem.DRAMFirst() }
func newNVM() machine.Manager      { return xmem.NVMOnly() }
func newPTAsync() machine.Manager  { return ptscan.HeMemPTAsync() }
func newPTSync() machine.Manager   { return ptscan.HeMemPTSync() }
func newScanOnly() machine.Manager { return ptscan.ScanOnly(nil) }

// gupsRun builds a machine+GUPS pair, warms, runs, and returns the
// steady-window score in GUPS.
func gupsRun(mgr machine.Manager, cfg gups.Config, warm, measure int64) float64 {
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, cfg)
	m.Warm()
	m.Run(warm)
	g.ResetScore()
	m.Run(measure)
	return g.Score()
}

// gb formats a byte count in GB.
func gb(b int64) string { return fmt.Sprintf("%d", b/sim.GB) }
