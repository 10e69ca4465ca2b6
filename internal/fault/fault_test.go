package fault

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
)

func TestDisabledInjectorIsNeutral(t *testing.T) {
	in := New(Config{}, sim.NewRand(0))
	if in.Enabled() {
		t.Fatal("zero config reported enabled")
	}
	ev := in.Advance(0, sim.Millisecond)
	if ev != (Events{}) {
		t.Fatalf("disabled injector produced events: %+v", ev)
	}
	if in.DMADerate() != 1 || in.NVMDerate() != 1 || in.PEBSLoadFactor() != 1 {
		t.Fatal("disabled injector derates not neutral")
	}
	if in.MigrationAbort() {
		t.Fatal("disabled injector aborted a migration")
	}
}

// A disabled injector must not draw randomness: two injectors sharing RNG
// state stay in lockstep regardless of how often one is queried.
func TestDisabledInjectorDrawsNothing(t *testing.T) {
	rng := sim.NewRand(42)
	in := New(Config{}, rng)
	for i := 0; i < 1000; i++ {
		in.Advance(int64(i)*sim.Millisecond, sim.Millisecond)
		in.MigrationAbort()
	}
	want := sim.NewRand(42).Uint64()
	if got := rng.Uint64(); got != want {
		t.Fatalf("disabled injector consumed randomness: next draw %d, want %d", got, want)
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := Config{
		MigrationAbortProb:   0.3,
		DMAChannelMTBF:       200 * sim.Millisecond,
		NVMUncorrectableMTBF: 300 * sim.Millisecond,
		NVMThermalMTBF:       150 * sim.Millisecond,
		PEBSStormMTBF:        100 * sim.Millisecond,
		DMADegradedMTBF:      250 * sim.Millisecond,
	}
	run := func(seed uint64) []Events {
		in := New(cfg, sim.NewRand(seed))
		var out []Events
		for i := 0; i < 5000; i++ {
			out = append(out, in.Advance(int64(i)*sim.Millisecond, sim.Millisecond))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at quantum %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical event streams")
	}
}

func TestEpisodeDerates(t *testing.T) {
	// MTBF equal to dt makes the episode start on the first quantum.
	in := New(Config{NVMThermalMTBF: sim.Millisecond}, sim.NewRand(1))
	ev := in.Advance(0, sim.Millisecond)
	if !ev.NVMThermalStart {
		t.Fatal("thermal episode did not start at probability 1")
	}
	if in.NVMDerate() != 0.4 {
		t.Fatalf("NVMDerate = %v during episode, want 0.4", in.NVMDerate())
	}
	// An in-progress episode does not restart.
	ev = in.Advance(5*sim.Millisecond, sim.Millisecond)
	if ev.NVMThermalStart {
		t.Fatal("episode restarted while in progress")
	}
	if in.NVMDerate() != 0.4 {
		t.Fatal("derate cleared mid-episode")
	}
	// Storm episodes expose their factor the same way.
	in3 := New(Config{PEBSStormMTBF: sim.Millisecond}, sim.NewRand(1))
	in3.Advance(0, sim.Millisecond)
	if in3.PEBSLoadFactor() != 8 {
		t.Fatalf("storm factor = %v, want 8", in3.PEBSLoadFactor())
	}
}

func TestBackoffCappedDoubling(t *testing.T) {
	want := []int64{
		100 * sim.Microsecond,
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
		1600 * sim.Microsecond,
		3200 * sim.Microsecond,
		6400 * sim.Microsecond,
		10 * sim.Millisecond,
		10 * sim.Millisecond,
	}
	for i, w := range want {
		if got := Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{MigrationAbortProb: -0.1},
		{MigrationAbortProb: 1.5},
		{DMAChannelMTBF: -5},
		{MigrationAbortProb: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
}

func TestDefaults(t *testing.T) {
	in := New(Config{MigrationAbortProb: 0.1, Chaos: ChaosConfig{CEStormMTBF: sim.Second}}, sim.NewRand(1))
	c := in.Config().Chaos
	if c.CEStormDuration != 100*sim.Millisecond || c.CEInterval != sim.Millisecond || c.CERetireThreshold != 4 {
		t.Fatalf("default CE storm = %d ns, interval %d ns, threshold %d", c.CEStormDuration, c.CEInterval, c.CERetireThreshold)
	}
	if c.TierOfflineDuration != 500*sim.Millisecond {
		t.Fatalf("default TierOfflineDuration = %d", c.TierOfflineDuration)
	}
	if !in.Enabled() {
		t.Fatal("abort-only config not enabled")
	}
}

func TestMigrationAbortProbabilityOneAlwaysFires(t *testing.T) {
	in := New(Config{MigrationAbortProb: 1}, sim.NewRand(1))
	for i := 0; i < 100; i++ {
		if !in.MigrationAbort() {
			t.Fatal("abort prob 1 did not fire")
		}
	}
}

// A CE storm draws each step's strikes at the step's own length: a short
// first step does not leave its Poisson mean behind for the full quanta
// that follow.
func TestCEStormRateFollowsStep(t *testing.T) {
	// A 1 ns MTBF starts the storm on the first step; it outlasts the run.
	in := New(Config{Chaos: ChaosConfig{
		CEStormMTBF:     1,
		CEStormDuration: 10 * sim.Second,
		CEInterval:      100 * sim.Microsecond,
	}}, sim.NewRand(3))
	now := int64(250 * sim.Microsecond)
	if ev := in.Advance(0, now); ev.NumEpisodes != 1 || ev.Episodes[0].Kind != EpCEStorm {
		t.Fatal("CE storm did not start on the first step")
	}
	const steps = 2000
	total := 0
	for i := 0; i < steps; i++ {
		total += in.Advance(now, sim.Millisecond).CorrectableErrors
		now += sim.Millisecond
	}
	// Poisson with mean 10 per 1 ms quantum: the mean over 2,000 quanta
	// has a standard error of 0.07.
	if mean := float64(total) / steps; mean < 9.7 || mean > 10.3 {
		t.Fatalf("mean CEs per 1 ms quantum = %.2f after a 250 µs first step, want 10", mean)
	}
}
