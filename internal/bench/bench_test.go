package bench

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Every table and figure of the paper's evaluation has an experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig1", "fig2", "fig3",
		"fig5", "fig6", "fig7", "tab2", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "tab3", "tab4", "fig14", "fig15", "fig16",
		"ext-swap", "tiers", "chaos", "trackers", "tbscale", "fleet",
	}
	if len(All()) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(All()), len(want))
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown id")
	} else if !strings.Contains(err.Error(), "fig10") || !strings.Contains(err.Error(), "tab1") {
		t.Errorf("ByID miss error should list valid ids, got: %v", err)
	}
}

// All returns experiments sorted and with titles.
func TestAllSortedAndTitled(t *testing.T) {
	prev := ""
	for _, e := range All() {
		if e.ID <= prev {
			t.Fatalf("not sorted: %s after %s", e.ID, prev)
		}
		prev = e.ID
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// The microbenchmark experiments run instantly and produce tables.
func TestMicroExperimentsProduceOutput(t *testing.T) {
	for _, id := range []string{"tab1", "fig1", "fig2", "fig3"} {
		out := expOutput(t, id)
		if len(out) < 100 {
			t.Errorf("%s: output too short:\n%s", id, out)
		}
		if !strings.Contains(out, "paper:") {
			t.Errorf("%s: missing paper expectation footer", id)
		}
	}
}

// goldenRow is one experiment of the golden table and the point of the
// output-neutral knob space it runs at. testdata/golden-<id>.txt holds
// the experiment's quick-scale output at the reference point (Jobs 1,
// the fixed step loop), so one run at the row's point both pins the
// output and proves the row's knobs change none of it.
type goldenRow struct {
	o Opts // Jobs and Adaptive; every other field stays zero
	// race marks rows that finish in about a second without the race
	// detector; only they run under -race or -short.
	race bool
	// shape, when set, checks what a re-recorded golden must still show
	// (TestExperimentSmoke runs it). fig5's rows, fleet's classes and
	// trackers' grid are checked by TestFig5RunsQuick,
	// TestFleetByteIdenticalAcrossJobs and TestTrackersSweepByteIdentical.
	shape func(t *testing.T, out string)
}

var (
	jobs8    = Opts{Jobs: 8}
	adaptive = Opts{Jobs: 8, Adaptive: true}
)

// goldenRows assigns every experiment its knob point. Adaptive rows
// include the four experiments the CLI used to refuse -adaptive for
// (chaos, fig8, tab2, ext-swap). No row forces the auditor
// (machine.SetAuditAll): it walks every page every quantum, which makes
// every machine-backed row over 100× slower. TestChaosAuditorIsPureObserver
// proves it neutral instead, and chaos and fleet audit every machine.
var goldenRows = map[string]goldenRow{
	"tab1":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig1":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig2":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig3":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig5":     {o: jobs8, shape: contains("paper:")},
	"fig6":     {o: jobs8, shape: contains("paper:")},
	"fig7":     {o: adaptive, shape: contains("paper:")},
	"tab2":     {o: adaptive, race: true, shape: contains("paper:")},
	"fig8":     {o: adaptive, race: true, shape: contains("paper:")},
	"fig9":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig10":    {o: jobs8, shape: contains("paper:")},
	"fig11":    {o: adaptive, shape: contains("paper:")},
	"fig12":    {o: jobs8, shape: contains("paper:")},
	"fig13":    {o: adaptive, shape: contains("paper:")},
	"tab3":     {o: jobs8, shape: contains("paper:")},
	"tab4":     {o: jobs8, race: true, shape: contains("paper:")},
	"fig14":    {o: adaptive, shape: contains("paper:")},
	"fig15":    {o: jobs8, race: true, shape: contains("paper:")},
	"fig16":    {o: adaptive, race: true, shape: contains("paper:")},
	"ext-swap": {o: adaptive},
	"tiers":    {o: jobs8, race: true},
	"chaos":    {o: adaptive, shape: contains("auditor: every quantum, zero violations")},
	"trackers": {o: jobs8},
	"tbscale":  {o: jobs8, race: true, shape: contains("digests MATCH")},
	"fleet":    {o: adaptive, race: true},
}

// contains returns a shape check that every sub appears in the output.
func contains(subs ...string) func(t *testing.T, out string) {
	return func(t *testing.T, out string) {
		t.Helper()
		for _, s := range subs {
			if !strings.Contains(out, s) {
				t.Errorf("output lacks %q", s)
			}
		}
	}
}

// outputKey names one experiment run: the experiment and its options.
type outputKey struct {
	id string
	o  Opts
}

var (
	outputsMu sync.Mutex
	outputs   = map[outputKey]*cachedOutput{}
)

// cachedOutput is one run's output, computed once per test binary so
// every test that inspects it shares a single run.
type cachedOutput struct {
	once sync.Once
	out  string
}

// runOutput returns experiment id's output at o, running it on first use.
func runOutput(t *testing.T, id string, o Opts) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	k := outputKey{id, o}
	outputsMu.Lock()
	c, ok := outputs[k]
	if !ok {
		c = new(cachedOutput)
		outputs[k] = c
	}
	outputsMu.Unlock()
	c.once.Do(func() {
		var b strings.Builder
		e.Run(&b, o)
		c.out = b.String()
	})
	return c.out
}

// expOutput returns experiment id's output at its golden row's knob
// point.
func expOutput(t *testing.T, id string) string {
	t.Helper()
	row, ok := goldenRows[id]
	if !ok {
		t.Fatalf("experiment %s has no golden row", id)
	}
	return runOutput(t, id, row.o)
}

// reference is the point every golden is recorded at: one sweep worker,
// the fixed step loop.
var reference = Opts{Jobs: 1}

// readGolden returns experiment id's committed golden.
func readGolden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden-"+id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// skipSlow skips t under -race or -short unless experiment id's golden
// row finishes in about a second without the race detector.
func skipSlow(t *testing.T, id string) {
	t.Helper()
	if !goldenRows[id].race && (raceEnabled || testing.Short()) {
		t.Skip("over a second without the race detector")
	}
}

// Every experiment's quick-scale output equals its committed golden.
// A change that moves any output fails here; one that means to re-records
// the goldens it moves and shows the diff:
//
//	go run ./cmd/hemem-bench -exp X -jobs 1 | sed '1d;/^([0-9.]*s)$/,$d' > internal/bench/testdata/golden-X.txt
func TestExperimentGoldens(t *testing.T) {
	for id := range goldenRows {
		if _, err := ByID(id); err != nil {
			t.Errorf("golden row for unregistered experiment: %v", err)
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			row, ok := goldenRows[id]
			if !ok {
				t.Fatalf("experiment %s has no golden row", id)
			}
			want := readGolden(t, id)
			skipSlow(t, id)
			if got := expOutput(t, id); got != want {
				t.Fatalf("%s (jobs %d, adaptive %v) drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s",
					id, row.o.Jobs, row.o.Adaptive, got, want)
			}
		})
	}
}

// Every experiment still shows what its golden row's shape check asks
// for, so a re-recorded golden keeps its paper footer and its rows.
func TestExperimentSmoke(t *testing.T) {
	for _, id := range IDs() {
		row := goldenRows[id]
		if row.shape == nil {
			continue
		}
		t.Run(id, func(t *testing.T) {
			skipSlow(t, id)
			row.shape(t, expOutput(t, id))
		})
	}
}

// The golden reference point itself (-jobs 1, fixed step loop) renders
// the goldens of the classic-testbed experiments: the micro tables,
// ext-swap, fig8, tab2 (whose TestExperimentGoldens rows run adaptive)
// and fig10, which pins the PEBS overrun regime (period 250 drops most
// samples) that no other experiment reaches.
func TestGoldenOutputsUnchanged(t *testing.T) {
	for _, id := range []string{"tab1", "fig1", "fig2", "fig3", "ext-swap", "fig8", "fig10", "tab2"} {
		t.Run(id, func(t *testing.T) {
			want := readGolden(t, id)
			skipSlow(t, id)
			if got := runOutput(t, id, reference); got != want {
				t.Fatalf("%s output drifted from golden capture:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}

// Serial (-jobs 1) and parallel (-jobs 8) runs of the sweep-heavy
// experiments must produce byte-identical output: cells share no state
// and derive all randomness from declaration-time identity, so execution
// order cannot leak into results. Unlike the goldens, this holds without
// any committed file, so it still tells a scheduling leak from a model
// change while goldens are being re-recorded.
func TestParallelOutputByteIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "fig10"} {
		t.Run(id, func(t *testing.T) {
			skipSlow(t, id)
			serial := runOutput(t, id, reference)
			if parallel := expOutput(t, id); serial != parallel {
				t.Fatalf("%s output differs between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
					id, serial, parallel)
			}
			if len(serial) < 100 {
				t.Fatalf("%s output suspiciously short:\n%s", id, serial)
			}
		})
	}
}

// The cheap sweeps give the same guarantee instantly, so they always run.
func TestParallelOutputByteIdenticalMicro(t *testing.T) {
	for _, id := range []string{"tab1", "fig1", "fig2", "fig3"} {
		if runOutput(t, id, reference) != expOutput(t, id) {
			t.Fatalf("%s output differs between -jobs 1 and -jobs 8", id)
		}
	}
}

// A representative heavier experiment runs end to end at quick scale and
// emits the expected header row.
func TestFig5RunsQuick(t *testing.T) {
	skipSlow(t, "fig5")
	out := expOutput(t, "fig5")
	if !strings.Contains(out, "DRAM") || !strings.Contains(out, "HeMem") {
		t.Fatalf("fig5 output malformed:\n%s", out)
	}
	if !strings.Contains(out, "256") {
		t.Fatal("fig5 missing the 256 GB row")
	}
}
