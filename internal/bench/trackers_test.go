package bench

import (
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// The trackers cross-product must render every tracker and policy (the -tracker/-policy filters narrow it; see TestTrackersFilter)
// and report the accuracy and traffic columns per cell.
func TestTrackersGridShape(t *testing.T) {
	trackers := trackerCells(Opts{})
	policies := policyCells(Opts{})
	if len(trackers) < 3 {
		t.Fatalf("trackers %v, want at least pebs, damon, idlepage", trackers)
	}
	if len(policies) < 2 {
		t.Fatalf("policies %v, want at least hemem, heat", policies)
	}
	for _, want := range []string{"pebs", "damon", "idlepage"} {
		if filterNames(trackers, want) == nil {
			t.Errorf("tracker %q missing", want)
		}
	}
	for _, want := range []string{"hemem", "heat"} {
		if filterNames(policies, want) == nil {
			t.Errorf("policy %q missing", want)
		}
	}
}

// The -tracker/-policy filters restrict the cross-product to one name
// and drop unknown names to an empty grid rather than silently running
// everything (hemem-bench rejects them first; see TestOptsValidate).
func TestTrackersFilter(t *testing.T) {
	if got := trackerCells(Opts{Tracker: "damon"}); len(got) != 1 || got[0] != "damon" {
		t.Errorf("tracker filter damon -> %v", got)
	}
	if got := policyCells(Opts{Policy: "heat"}); len(got) != 1 || got[0] != "heat" {
		t.Errorf("policy filter heat -> %v", got)
	}
	if got := trackerCells(Opts{Tracker: "nope"}); got != nil {
		t.Errorf("unknown tracker filter -> %v, want nil", got)
	}
}

// Opts.Validate, which hemem-bench runs on its flags, rejects a tracker,
// policy or QoS name outside its table and lists the valid values, so an
// unknown -tracker or -policy exits with an error instead of printing an
// empty trackers table.
func TestOptsValidate(t *testing.T) {
	for _, o := range []Opts{{}, {Tracker: "damon", Policy: "heat", QoS: "gold", Tenants: 4}} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	cases := []struct {
		o    Opts
		want []string
	}{
		{Opts{Tracker: "nope"}, []string{"unknown tracker", `"nope"`, "damon, idlepage, pebs"}},
		{Opts{Policy: "nope"}, []string{"unknown policy", `"nope"`, "heat, hemem"}},
		{Opts{QoS: "nope"}, []string{"-qos", `"nope"`, "gold, silver, besteffort"}},
		{Opts{Tenants: -1}, []string{"-tenants"}},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%+v: Validate accepted it", tc.o)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %q should contain %q", tc.o, err, w)
			}
		}
	}
}

// Same seed ⇒ byte-identical trackers output at every worker count: the
// cross-product cells derive all randomness from declaration-time
// identity, so scheduling order cannot leak into the table. The -jobs 1
// side is the golden, recorded at -jobs 1, rather than a second run of
// the slowest experiment; the -jobs 8 run is the one TestExperimentGoldens
// shares.
func TestTrackersSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	if raceEnabled {
		// This test pins values, which instrumentation cannot change, and
		// costs several minutes under -race.
		t.Skip("value-level determinism check; skipped under the race detector")
	}
	serial := readGolden(t, "trackers")
	if parallel := expOutput(t, "trackers"); serial != parallel {
		t.Fatalf("trackers output differs between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
	trackersGridCovered(t, serial)
}

// trackersGridCovered checks that the trackers table covers the full
// cross-product: every tracker × policy pair appears on some row
// (tabwriter pads columns with spaces, so both names are matched on one
// line).
func trackersGridCovered(t *testing.T, out string) {
	t.Helper()
	for _, tr := range trackerCells(Opts{}) {
		for _, po := range policyCells(Opts{}) {
			found := false
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, tr) && strings.Contains(line, " "+po+" ") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("cell %s×%s missing from output", tr, po)
			}
		}
	}
}

// chaosTrackerRun runs one short chaos soak — compound episodes, CE
// storms, CXL offline/online cycles, the invariant auditor checking
// every quantum — with the given tracker driving the default policy on
// the chaosMachine testbed, and digests its score, ops, manager stats,
// fault counters, migrations per edge, episode log and telemetry CSV.
func chaosTrackerRun(t *testing.T, tracker string, seed uint64) string {
	t.Helper()
	m, h, tel, score := soakRun(Opts{Seed: seed}, core.Config{Tracker: tracker}, 3*sim.Second, 5*sim.Second)
	if m.FaultCounters().Injected() == 0 {
		t.Fatalf("%s chaos run injected no faults; scenario lost its coverage", tracker)
	}
	moved := [3]int64{
		m.Migrator.Moved(vm.TierDRAM, vm.TierCXL),
		m.Migrator.Moved(vm.TierCXL, vm.TierNVM),
		m.Migrator.Moved(vm.TierCXL, vm.TierDRAM),
	}
	return outcomeDigest(t, m, tel, score, m.TotalOps("gups"), h.Stats(), moved)
}

// trackerChaosPins holds each scan-based tracker's chaos-run digest at
// seed 23.
var trackerChaosPins = map[string]string{
	"damon":    "f99ceee1635c576a",
	"idlepage": "4e6e61ba4feaf168",
}

// The scan-based trackers replay their pinned run under the full chaos
// menagerie with the auditor on: their RNG streams derive from the
// machine seed, not from scheduling, and an auditor violation panics the
// run.
func TestTrackersChaosReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated chaos runs")
	}
	if raceEnabled {
		// One serial run compared with a pin: no concurrency beyond what
		// TestChaosSoak already runs race-instrumented, and about 5 min
		// under -race.
		t.Skip("value-level check; skipped under the race detector")
	}
	for _, tracker := range []string{"damon", "idlepage"} {
		t.Run(tracker, func(t *testing.T) {
			if got, want := chaosTrackerRun(t, tracker, 23), trackerChaosPins[tracker]; got != want {
				t.Errorf("%s chaos run digest %s, pinned %s", tracker, got, want)
			}
		})
	}
}
