package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// soakFaults is the chaos soak configuration: every legacy injector
// plus the chaos scheduler's compound episodes, CXL offline events, and
// correctable-error storms, aggressive enough that a 40-second run sees
// several of each.
func soakFaults() fault.Config {
	return fault.Config{
		MigrationAbortProb:   0.02,
		DMAChannelMTBF:       20 * sim.Second,
		DMADegradedMTBF:      5 * sim.Second,
		NVMUncorrectableMTBF: 2 * sim.Second,
		NVMThermalMTBF:       5 * sim.Second,
		PEBSStormMTBF:        5 * sim.Second,
		Chaos: fault.ChaosConfig{
			CompoundMTBF:        8 * sim.Second,
			TierOfflineMTBF:     10 * sim.Second,
			TierOfflineDuration: 4 * sim.Second,
			OfflineTiers:        fault.OfflineSet(vm.TierCXL),
			// CE strikes spread uniformly over the whole NVM page
			// population, so accumulating a per-page threshold in a
			// 40-second run needs a dense storm and a low bar.
			CEStormMTBF:       4 * sim.Second,
			CEStormDuration:   500 * sim.Millisecond,
			CEInterval:        200 * sim.Microsecond,
			CERetireThreshold: 2,
		},
	}
}

// soakRun drives one chaos soak: GUPS on the three-tier testbed with
// the full fault menagerie, telemetry sampling every 100 ms, and the
// invariant auditor checking every quantum when audit is set (a
// violation panics and fails the test). warm and run are simulated
// seconds — the soak proper runs long enough to see several of every
// episode class; the pinned replays use shorter runs to keep the -race
// soak job well inside its budget.
func soakRun(t *testing.T, seed uint64, audit bool, warm, run int64) (*machine.Machine, *machine.Telemetry, float64) {
	t.Helper()
	m, _ := chaosMachine(seed, soakFaults(), audit)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 6 * sim.GB, Seed: seed,
	})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	m.Warm()
	m.Run(warm * sim.Second)
	g.ResetScore()
	m.Run(run * sim.Second)
	return m, tel, g.Score()
}

// outcomeDigest hashes everything a chaos run can differ in: the given
// outcome values, the fault counters, the episode log and the telemetry
// CSV. The chaos tests compare it with a committed pin, so one run
// checks what two replays used to.
func outcomeDigest(t *testing.T, m *machine.Machine, tel *machine.Telemetry, outcome ...any) string {
	t.Helper()
	h := fnv.New64a()
	for _, v := range outcome {
		fmt.Fprintf(h, "%+v\n", v)
	}
	fmt.Fprintf(h, "%+v\n", *m.FaultCounters())
	if err := fault.WriteEpisodes(h, m.Episodes()); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestChaosSoak is the bounded soak harness CI runs under -race: a
// 50-second simulated GUPS run through compound episodes, CE storms,
// and repeated CXL offline/online cycles, with the auditor verifying
// conservation invariants every quantum. The run must see at least one
// full offline→evacuate→online cycle, drain the tier completely
// (MTTR recorded), and leave the offline tier empty at every completed
// evacuation. Set CHAOS_LOG to also write the episode-log artifact.
func TestChaosSoak(t *testing.T) {
	m, _, score := soakRun(t, 17, true, 10, 40)
	if score <= 0 {
		t.Fatalf("GUPS score %v, want > 0 (workload ran through the chaos)", score)
	}
	fs := *m.FaultCounters()
	if fs.TierOfflineEvents == 0 {
		t.Fatalf("no tier offline events fired; FaultStats %+v", fs)
	}
	if fs.TierOnlineEvents == 0 {
		t.Fatalf("no tier came back online; FaultStats %+v", fs)
	}
	if fs.TierEvacuations == 0 || fs.TierEvacNsTotal <= 0 {
		t.Fatalf("no completed evacuation (MTTR) recorded: evacs %d, total %d ns",
			fs.TierEvacuations, fs.TierEvacNsTotal)
	}
	if fs.TierEvacuatedPages == 0 {
		t.Fatalf("no pages evacuated off the offline tier")
	}
	if fs.CompoundEpisodes == 0 {
		t.Errorf("no compound episodes fired")
	}
	if fs.CEStorms == 0 || fs.CorrectableErrors == 0 {
		t.Errorf("no correctable-error storms/strikes: %d storms, %d CEs",
			fs.CEStorms, fs.CorrectableErrors)
	}
	if fs.PagesPredictivelyRetired == 0 {
		t.Errorf("CE threshold never retired a page predictively")
	}
	eps := m.Episodes()
	if len(eps) == 0 {
		t.Fatalf("episode log empty")
	}
	// Every completed evacuation drained 100% of the tier: its episode
	// records a non-negative EvacNs and the audit's evac-done rule held
	// every quantum after (a violation would have panicked).
	evacs := 0
	for _, e := range eps {
		if e.Kind == fault.EpTierOffline && e.EvacNs >= 0 {
			evacs++
		}
	}
	if int64(evacs) != fs.TierEvacuations {
		t.Errorf("episode log records %d completed evacuations, FaultStats %d", evacs, fs.TierEvacuations)
	}
	if path := os.Getenv("CHAOS_LOG"); path != "" {
		var buf bytes.Buffer
		if err := fault.WriteEpisodes(&buf, eps); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("episode log written to %s (%d episodes)", path, len(eps))
	}
}

// Pinned digests of the short chaos soak (3 s warm, 12 s measured):
// seed 99 audited, and seed 7 unaudited.
const (
	chaosSeed99Pin = "ae86c32d291392b4"
	chaosSeed7Pin  = "4a77531be4def0eb"
)

// TestChaosDeterminism: a seed and a chaos Config replay the pinned run
// bit for bit — same score, FaultStats, episode log and telemetry CSV.
func TestChaosDeterminism(t *testing.T) {
	m, tel, score := soakRun(t, 99, true, 3, 12)
	if got := outcomeDigest(t, m, tel, score); got != chaosSeed99Pin {
		t.Errorf("chaos run digest %s, pinned %s", got, chaosSeed99Pin)
	}
}

// TestChaosAuditorIsPureObserver: enabling the auditor changes nothing
// about the run — the audited run reproduces the pin recorded without
// it. (The complementary guarantee — zero chaos config is a strict no-op
// on the RNG stream — is pinned by the experiment goldens, which run
// with chaos disabled.)
func TestChaosAuditorIsPureObserver(t *testing.T) {
	m, tel, score := soakRun(t, 7, true, 3, 12)
	if got := outcomeDigest(t, m, tel, score); got != chaosSeed7Pin {
		t.Errorf("auditor changed the run: digest %s, unaudited pin %s", got, chaosSeed7Pin)
	}
}

// TestChaosZeroConfigNoOp: a fault config whose chaos block is zero
// draws nothing from the chaos scheduler — the machine behaves exactly
// as it did before the scheduler existed (no episodes beyond the legacy
// injectors', no tier events, no CEs).
func TestChaosZeroConfigNoOp(t *testing.T) {
	cfg := soakFaults()
	cfg.Chaos = fault.ChaosConfig{}
	m, _ := chaosMachine(5, cfg, true)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 6 * sim.GB, Seed: 5,
	})
	m.Warm()
	m.Run(15 * sim.Second)
	_ = g
	fs := *m.FaultCounters()
	if fs.TierOfflineEvents != 0 || fs.CompoundEpisodes != 0 || fs.CEStorms != 0 || fs.CorrectableErrors != 0 {
		t.Errorf("zero chaos config moved chaos counters: %+v", fs)
	}
	for _, e := range m.Episodes() {
		if e.Kind == fault.EpTierOffline || e.Kind == fault.EpCompound || e.Kind == fault.EpCEStorm {
			t.Errorf("zero chaos config logged chaos episode %v", e)
		}
	}
}
