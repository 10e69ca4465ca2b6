// Tests of the public API surface: the façade must be sufficient to build
// machines, run workloads, and drive the real data-structure
// implementations without touching internal packages.
package hemem_test

import (
	"bytes"
	"strings"
	"testing"

	hemem "github.com/tieredmem/hemem"
)

func TestPublicGUPSFlow(t *testing.T) {
	mgr := hemem.NewHeMem(hemem.DefaultHeMemConfig())
	m := hemem.NewMachine(hemem.DefaultMachineConfig(), mgr)
	g := hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 64 * hemem.GB, HotSet: 8 * hemem.GB, Seed: 1,
	})
	m.Warm()
	m.Run(30 * hemem.Second)
	if g.Score() <= 0 {
		t.Fatal("no progress through public API")
	}
	if g.HotPages().Frac(hemem.TierDRAM) <= 0 {
		t.Fatal("placement not visible through public API")
	}
}

func TestPublicManagersConstruct(t *testing.T) {
	for name, mgr := range map[string]hemem.Manager{
		"hemem":    hemem.NewHeMem(hemem.DefaultHeMemConfig()),
		"mm":       hemem.NewMemoryMode(),
		"nimble":   hemem.NewNimble(),
		"pt-async": hemem.NewHeMemPTAsync(),
		"pt-sync":  hemem.NewHeMemPTSync(),
		"dram":     hemem.DRAMOnly(),
		"nvm":      hemem.NVMOnly(),
		"xmem":     hemem.XMem(hemem.GB),
	} {
		m := hemem.NewMachine(hemem.DefaultMachineConfig(), mgr)
		hemem.NewGUPS(m, hemem.GUPSConfig{Threads: 4, WorkingSet: 4 * hemem.GB})
		m.Warm()
		m.Run(100 * hemem.Millisecond)
		if m.TotalOps("gups") <= 0 {
			t.Errorf("%s: no ops", name)
		}
	}
}

func TestPublicKVStore(t *testing.T) {
	s := hemem.NewKVStore(hemem.KVStoreConfig{})
	s.Set([]byte("k"), []byte("v"))
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("store roundtrip failed")
	}
}

func TestPublicSiloTPCC(t *testing.T) {
	env := hemem.NewTPCCEnv(hemem.NewDB(), 1)
	g := hemem.NewTPCCRand(1)
	for i := 0; i < 50; i++ {
		if _, err := env.RunMix(g, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicGraph(t *testing.T) {
	g := hemem.Kronecker(8, 8, 1)
	scores := hemem.BetweennessCentrality(g, 3, 1)
	if len(scores) != g.N {
		t.Fatal("score length mismatch")
	}
}

func TestPublicExperiments(t *testing.T) {
	if len(hemem.Experiments()) != 26 {
		t.Fatalf("experiments = %d, want 26", len(hemem.Experiments()))
	}
	var buf bytes.Buffer
	if !hemem.RunExperiment("tab1", &buf, hemem.ExperimentOpts{}) {
		t.Fatal("tab1 missing")
	}
	if !strings.Contains(buf.String(), "DRAM") {
		t.Fatal("tab1 output malformed")
	}
	if hemem.RunExperiment("bogus", &buf, hemem.ExperimentOpts{}) {
		t.Fatal("bogus experiment accepted")
	}
	// Invalid options are rejected before the experiment writes anything.
	for _, opts := range []hemem.ExperimentOpts{{Tracker: "nope"}, {Tenants: -1}} {
		buf.Reset()
		if hemem.RunExperiment("trackers", &buf, opts) {
			t.Errorf("RunExperiment accepted invalid options %+v", opts)
		}
		if buf.Len() != 0 {
			t.Errorf("RunExperiment wrote %d bytes for invalid options %+v", buf.Len(), opts)
		}
	}
}

func TestPublicTierTable(t *testing.T) {
	mcfg := hemem.DefaultMachineConfig()
	mcfg.Tiers = []hemem.TierDesc{
		{ID: hemem.TierDRAM, Capacity: 4 * hemem.GB},
		{ID: hemem.TierCXL, Capacity: 8 * hemem.GB},
		{ID: hemem.TierNVM, Capacity: 64 * hemem.GB, UEVictim: true},
	}
	mgr := hemem.NewHeMem(hemem.DefaultHeMemConfig())
	m := hemem.NewMachine(mcfg, mgr)
	r := m.AS.Map("data", 8*hemem.GB)
	m.Warm()
	if r.Bytes(hemem.TierCXL) == 0 {
		t.Fatal("no pages landed on the CXL middle tier")
	}
	if got := mgr.Used(hemem.TierCXL); got != r.Bytes(hemem.TierCXL) {
		t.Fatalf("manager CXL accounting %d != resident %d", got, r.Bytes(hemem.TierCXL))
	}
}

// The tracker and policy tables are reachable through the façade: their
// names enumerate, sorted, and a rival selection builds a working
// manager.
func TestPublicTrackerPolicyRegistry(t *testing.T) {
	if got := strings.Join(hemem.TrackerNames(), ","); got != "damon,idlepage,pebs" {
		t.Fatalf("TrackerNames = %s", got)
	}
	if got := strings.Join(hemem.PolicyNames(), ","); got != "heat,hemem" {
		t.Fatalf("PolicyNames = %s", got)
	}

	cfg := hemem.HeMemConfig{Tracker: "damon", Policy: "heat"}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected valid names: %v", err)
	}
	mgr := hemem.NewHeMem(cfg)
	m := hemem.NewMachine(hemem.DefaultMachineConfig(), mgr)
	g := hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 8, WorkingSet: 16 * hemem.GB, HotSet: 2 * hemem.GB, Seed: 1,
	})
	m.Warm()
	m.Run(2 * hemem.Second)
	if g.Score() <= 0 {
		t.Fatal("no progress with damon+heat through public API")
	}
	if mgr.Stats().Samples == 0 {
		t.Fatal("custom-configured manager observed no accesses")
	}
}
