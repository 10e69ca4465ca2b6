package core_test

import (
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// The registries list every built-in implementation, sorted, mirroring
// mem.RegisterModel's contract.
func TestTrackerPolicyRegistryNames(t *testing.T) {
	cases := []struct {
		what string
		got  []string
		want []string
	}{
		{"trackers", core.TrackerNames(), []string{"damon", "idlepage", "pebs"}},
		{"policies", core.PolicyNames(), []string{"heat", "hemem"}},
		{"forecasters", core.HeatForecasterNames(), []string{"ema", "static", "trend"}},
	}
	for _, tc := range cases {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s = %v, want %v", tc.what, tc.got, tc.want)
			continue
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s = %v, want %v (sorted)", tc.what, tc.got, tc.want)
				break
			}
		}
	}
}

// New panics on an unregistered tracker or policy name, listing what is
// registered — the same contract as the machine's memory-model registry.
func TestUnknownTrackerPanics(t *testing.T) {
	for _, cfg := range []core.Config{
		{Tracker: "nope"},
		{Policy: "nope"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("New(%+v) did not panic", cfg)
					return
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, "nope") || !strings.Contains(msg, "registered:") {
					t.Errorf("panic %q should name the unknown id and list registered ones", msg)
				}
			}()
			core.New(cfg)
		}()
	}
}

// Every rival tracker × policy pair drives a machine end to end: pages
// get observed, the policy classifies, and only the PEBS tracker exposes
// a sampler (the nil sampler path is what machine.Step must tolerate).
func TestRivalTrackersSmoke(t *testing.T) {
	for _, tracker := range core.TrackerNames() {
		for _, policy := range core.PolicyNames() {
			tracker, policy := tracker, policy
			t.Run(tracker+"+"+policy, func(t *testing.T) {
				h := core.New(core.Config{Tracker: tracker, Policy: policy})
				if got := h.Tracker().Name(); got != tracker {
					t.Fatalf("Tracker().Name() = %q, want %q", got, tracker)
				}
				if got := h.Policy().Name(); got != policy {
					t.Fatalf("Policy().Name() = %q, want %q", got, policy)
				}
				mcfg := machine.DefaultConfig()
				mcfg.Tiers = machine.ClassicTiers(2*sim.GB, 0, 0)
				m := machine.New(mcfg, h)
				if (h.Sampler() != nil) != (tracker == "pebs") {
					t.Fatalf("Sampler() non-nil = %v for tracker %s", h.Sampler() != nil, tracker)
				}
				g := gups.New(m, gups.Config{
					Threads: 8, WorkingSet: 8 * sim.GB, HotSet: 1 * sim.GB, Seed: 7,
				})
				m.Warm()
				m.Run(3 * sim.Second)
				if g.Score() <= 0 {
					t.Fatalf("no GUPS progress under %s+%s", tracker, policy)
				}
				if h.Stats().Samples == 0 {
					t.Fatalf("%s delivered no observations to %s", tracker, policy)
				}
				if m.Migrator.Stats().Pages == 0 {
					t.Fatalf("%s+%s never migrated a page", tracker, policy)
				}
			})
		}
	}
}
