package fault

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
)

func TestDisabledInjectorIsNeutral(t *testing.T) {
	in := Disabled()
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
	cfg := Config{
		NVMThermalMTBF:     sim.Millisecond,
		NVMThermalDuration: 10 * sim.Millisecond,
		NVMThermalFactor:   0.4,
	}
	in := New(cfg, sim.NewRand(1))
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
	in3 := New(Config{
		PEBSStormMTBF:     sim.Millisecond,
		PEBSStormDuration: 2 * sim.Millisecond,
		PEBSStormFactor:   8,
	}, sim.NewRand(1))
	in3.Advance(0, sim.Millisecond)
	if in3.PEBSLoadFactor() != 8 {
		t.Fatalf("storm factor = %v, want 8", in3.PEBSLoadFactor())
	}
}

func TestBackoffCappedDoubling(t *testing.T) {
	in := New(Config{
		MigrationAbortProb: 0.5,
		RetryBackoff:       100 * sim.Microsecond,
		RetryBackoffMax:    1 * sim.Millisecond,
	}, sim.NewRand(1))
	want := []int64{
		100 * sim.Microsecond,
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
		1 * sim.Millisecond,
		1 * sim.Millisecond,
	}
	for i, w := range want {
		if got := in.Backoff(i + 1); got != w {
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
		{MigrationMaxRetries: -1},
		{RetryBackoff: -1},
		{DMAChannelMTBF: -5},
		{DMADegradedFactor: 2},
		{NVMThermalFactor: -0.5},
		{PEBSStormFactor: -1},
		{MigrationAbortProb: math.NaN()},
		{DMADegradedFactor: math.NaN()},
		{NVMThermalFactor: math.NaN()},
		{PEBSStormFactor: math.NaN()},
		{PEBSStormFactor: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
}

func TestDefaults(t *testing.T) {
	in := New(Config{MigrationAbortProb: 0.1}, sim.NewRand(1))
	cfg := in.Config()
	if cfg.MigrationMaxRetries != 5 {
		t.Fatalf("default MigrationMaxRetries = %d, want 5", cfg.MigrationMaxRetries)
	}
	if cfg.RetryBackoff != 100*sim.Microsecond || cfg.RetryBackoffMax != 10*sim.Millisecond {
		t.Fatalf("default backoff = %d/%d", cfg.RetryBackoff, cfg.RetryBackoffMax)
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
