// Package fault is a deterministic, seed-driven fault-injection layer for
// the simulated testbed. Real tiered-memory systems do not live on the
// happy path: DMA channels die or degrade, NVM media develops
// uncorrectable errors and thermal-throttles under sustained writes, page
// migrations abort under destination pressure, and PEBS buffers overrun
// when sampling outpaces the reader thread. The injector provokes those
// regimes so the managers' recovery machinery (transactional migration
// with retry/backoff, software-copy fallback, page retirement with
// emergency promotion, adaptive sample periods) can be exercised and
// measured.
//
// All randomness is drawn from an internal/sim RNG derived from the
// machine seed, so faulty runs are exactly as reproducible as fault-free
// ones: the same seed and the same Config produce bit-identical histories.
// A zero Config disables injection entirely; every query then returns its
// neutral value without consulting the RNG, so a disabled injector is a
// strict no-op.
//
// The chaos scheduler (chaos.go, ChaosConfig) composes the independent
// injectors into compound episodes and adds whole-tier offline/online
// events (a CXL expander link going down, a DIMM hot-removed) and
// correctable-error storms that escalate into predictive page
// retirement. It too draws only when configured, and the same seed and
// Config replay bit-identical episode timelines.
package fault

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// The retry policy and episode shapes are constants: every run injects
// them at these values.
const (
	// An aborted migration's first retry waits retryBackoff; the wait
	// doubles per subsequent retry, capped at retryBackoffMax.
	retryBackoff    = 100 * sim.Microsecond
	retryBackoffMax = 10 * sim.Millisecond

	// Each episode lasts its duration. A DMA-degraded episode runs the
	// surviving channels at dmaDegradedFactor of their bandwidth, a
	// thermal throttle runs the NVM device at nvmThermalFactor, a
	// sampling storm multiplies PEBS sample inflow by pebsStormFactor,
	// and a compound episode runs all three at once.
	dmaDegradedDuration         = 50 * sim.Millisecond
	dmaDegradedFactor   float64 = 0.5
	nvmThermalDuration          = 100 * sim.Millisecond
	nvmThermalFactor    float64 = 0.4
	pebsStormDuration           = 50 * sim.Millisecond
	pebsStormFactor     float64 = 8
	compoundDuration            = 50 * sim.Millisecond
)

// Config selects the faults to inject and their rates. The zero value
// disables all injection. Each fault is parameterized by a mean time
// between events (MTBF, simulated nanoseconds; 0 disables that fault);
// episode durations and severities are the package's constants.
type Config struct {
	// MigrationAbortProb is the probability that one page-copy attempt
	// fails its verification step (destination pressure, copy verification
	// mismatch) and rolls back. The migrator retries an aborted migration
	// with capped exponential backoff (Backoff) and abandons it after a
	// fixed number of retries.
	MigrationAbortProb float64
	// DMAChannelMTBF is the mean time between permanent DMA channel
	// failures. Each failure removes one I/OAT channel; when none remain
	// the migrator degrades to the paper's 4-thread software-copy
	// fallback.
	DMAChannelMTBF int64
	// DMADegradedMTBF starts episodes during which the surviving DMA
	// channels run at half their bandwidth for 50 ms.
	DMADegradedMTBF int64
	// NVMUncorrectableMTBF is the mean time between uncorrectable media
	// errors striking a random NVM-resident page. The machine retires the
	// failing frame, remaps the page, and asks the manager for an
	// emergency promotion.
	NVMUncorrectableMTBF int64
	// NVMThermalMTBF starts thermal-throttle episodes during which the NVM
	// device runs at 0.4 of its bandwidth for 100 ms.
	NVMThermalMTBF int64
	// PEBSStormMTBF starts sampling storms during which PEBS sample inflow
	// is multiplied by 8 for 50 ms. Sustained storms overrun the sample
	// buffer; an adaptive manager responds by raising its sample period.
	PEBSStormMTBF int64
	// Chaos configures the chaos scheduler: compound episodes, whole-tier
	// offline/online events, and correctable-error storms (see
	// ChaosConfig). The zero value disables it.
	Chaos ChaosConfig
}

// Enabled reports whether any fault is configured.
func (c Config) Enabled() bool {
	return c.MigrationAbortProb > 0 ||
		c.DMAChannelMTBF > 0 ||
		c.DMADegradedMTBF > 0 ||
		c.NVMUncorrectableMTBF > 0 ||
		c.NVMThermalMTBF > 0 ||
		c.PEBSStormMTBF > 0 ||
		c.Chaos.Enabled()
}

// Validate reports the first invalid parameter, or nil. The zero Config
// is valid (injection disabled).
func (c Config) Validate() error {
	// Written so that NaN fails it.
	if !(c.MigrationAbortProb >= 0 && c.MigrationAbortProb <= 1) {
		return fmt.Errorf("fault: MigrationAbortProb %v outside [0,1]", c.MigrationAbortProb)
	}
	ch := c.Chaos
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"DMAChannelMTBF", c.DMAChannelMTBF},
		{"DMADegradedMTBF", c.DMADegradedMTBF},
		{"NVMUncorrectableMTBF", c.NVMUncorrectableMTBF},
		{"NVMThermalMTBF", c.NVMThermalMTBF},
		{"PEBSStormMTBF", c.PEBSStormMTBF},
		{"CompoundMTBF", ch.CompoundMTBF},
		{"TierOfflineMTBF", ch.TierOfflineMTBF},
		{"TierOfflineDuration", ch.TierOfflineDuration},
		{"CEStormMTBF", ch.CEStormMTBF},
		{"CEStormDuration", ch.CEStormDuration},
		{"CEInterval", ch.CEInterval},
		{"CERetireThreshold", int64(ch.CERetireThreshold)},
	} {
		if m.v < 0 {
			return fmt.Errorf("fault: negative %s %d", m.name, m.v)
		}
	}
	n := 0
	for _, t := range ch.OfflineTiers {
		if t == vm.TierNone {
			continue
		}
		if t < vm.TierNone || int(t) >= vm.MaxTiers {
			return fmt.Errorf("fault: invalid offline tier %d", t)
		}
		n++
	}
	if ch.TierOfflineMTBF > 0 && n == 0 {
		return fmt.Errorf("fault: TierOfflineMTBF set but OfflineTiers empty")
	}
	return nil
}

// withDefaults clamps an out-of-range abort probability (NaN counts as
// 0) and fills the chaos scheduler's unset durations and thresholds.
// Rates are never defaulted: a zero rate means the fault is off.
func (c Config) withDefaults() Config {
	if !(c.MigrationAbortProb >= 0) {
		c.MigrationAbortProb = 0
	}
	c.MigrationAbortProb = min(c.MigrationAbortProb, 1)
	ch := &c.Chaos
	if ch.TierOfflineDuration <= 0 {
		ch.TierOfflineDuration = 500 * sim.Millisecond
	}
	if ch.CEStormDuration <= 0 {
		ch.CEStormDuration = 100 * sim.Millisecond
	}
	if ch.CEInterval <= 0 {
		ch.CEInterval = sim.Millisecond
	}
	if ch.CERetireThreshold <= 0 {
		ch.CERetireThreshold = 4
	}
	return c
}

// Events reports what the injector decided for one quantum.
type Events struct {
	// DMAChannelFails is how many DMA channels die this quantum.
	DMAChannelFails int
	// NVMUncorrectable is how many uncorrectable NVM errors strike this
	// quantum.
	NVMUncorrectable int
	// DMADegradedStart / NVMThermalStart / PEBSStormStart mark episode
	// onsets, a compound episode's constituents included (an episode
	// already in progress does not restart).
	DMADegradedStart bool
	NVMThermalStart  bool
	PEBSStormStart   bool
	// CorrectableErrors is how many correctable media errors strike this
	// quantum (nonzero only inside a CE storm).
	CorrectableErrors int
	// TierOffline is the tier the chaos scheduler takes down this quantum
	// (TierNone if none; at most one per quantum). TierOnline marks the
	// tiers whose offline episodes end this quantum. Fixed-size so Events
	// stays comparable.
	TierOffline vm.Tier
	TierOnline  [vm.MaxTiers]bool
	// Episodes announces episode onsets for the machine's episode log
	// and counters with their scheduled end times; the first NumEpisodes
	// entries are valid. A compound episode is announced once, as
	// EpCompound.
	Episodes    [maxEpisodeStarts]EpisodeStart
	NumEpisodes int
}

// maxEpisodeStarts bounds episode onsets per quantum: one per episode
// class (compound, DMA-degraded, thermal, storm, CE storm, tier-offline).
const maxEpisodeStarts = 6

// addEpisode records an episode onset in the fixed-size announcement
// list.
func (ev *Events) addEpisode(s EpisodeStart) {
	if ev.NumEpisodes < maxEpisodeStarts {
		ev.Episodes[ev.NumEpisodes] = s
		ev.NumEpisodes++
	}
}

// Injector draws fault decisions from a dedicated deterministic RNG and
// tracks episode state. It is queried by the machine, migrator, and
// managers; all methods are cheap and none draw randomness when the
// injector is disabled.
type Injector struct {
	cfg Config
	rng *sim.Rand
	on  bool

	dmaDegradedUntil int64
	thermalUntil     int64
	stormUntil       int64

	// chaos-scheduler state
	compoundUntil int64
	ceUntil       int64
	offlineUntil  [vm.MaxTiers]int64
	tierScratch   []vm.Tier
	cePrep        sim.PoissonPrep
	ceDt          int64 // the step length cePrep was built for

	dmaDerate  float64
	nvmDerate  float64
	loadFactor float64
}

// New builds an injector. Out-of-range parameters are clamped to their
// defaults (call Config.Validate beforehand to detect them); a zero
// Config yields a disabled injector.
func New(cfg Config, rng *sim.Rand) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:        cfg,
		rng:        rng,
		on:         cfg.Enabled(),
		dmaDerate:  1,
		nvmDerate:  1,
		loadFactor: 1,
	}
}

// prepCE returns the Poisson constants for CE arrivals in a step of dt,
// rebuilding them whenever dt differs from the step they were built for:
// the fixed loop's quanta share one prep, but a short step (the tail of
// a Run that is not a whole number of quanta, or a direct Step) must
// neither use nor leave behind constants for another length.
func (in *Injector) prepCE(dt int64) sim.PoissonPrep {
	if dt != in.ceDt {
		in.ceDt = dt
		in.cePrep = sim.NewPoissonPrep(float64(dt) / float64(in.cfg.Chaos.CEInterval))
	}
	return in.cePrep
}

// Enabled reports whether any fault is configured.
func (in *Injector) Enabled() bool { return in.on }

// Config returns the (default-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Advance progresses episodic fault state through one quantum
// [now, now+dt) and returns the events the machine must apply. Event
// counts per quantum follow a Bernoulli(dt/MTBF) approximation, which is
// accurate for quanta much shorter than the MTBF (the simulator's 1 ms
// quantum against MTBFs of hundreds of ms or more).
func (in *Injector) Advance(now, dt int64) Events {
	var ev Events
	if !in.on {
		return ev
	}
	if in.fire(in.cfg.DMAChannelMTBF, dt) {
		ev.DMAChannelFails = 1
	}
	if in.fire(in.cfg.NVMUncorrectableMTBF, dt) {
		ev.NVMUncorrectable = 1
	}
	ev.DMADegradedStart = in.episode(&ev, EpDMADegraded, &in.dmaDegradedUntil, in.cfg.DMADegradedMTBF, dmaDegradedDuration, now, dt)
	ev.NVMThermalStart = in.episode(&ev, EpNVMThermal, &in.thermalUntil, in.cfg.NVMThermalMTBF, nvmThermalDuration, now, dt)
	ev.PEBSStormStart = in.episode(&ev, EpPEBSStorm, &in.stormUntil, in.cfg.PEBSStormMTBF, pebsStormDuration, now, dt)
	if in.cfg.Chaos.Enabled() {
		in.advanceChaos(now, dt, &ev)
	}
	in.dmaDerate, in.nvmDerate, in.loadFactor = 1, 1, 1
	if now < in.dmaDegradedUntil {
		in.dmaDerate = dmaDegradedFactor
	}
	if now < in.thermalUntil {
		in.nvmDerate = nvmThermalFactor
	}
	if now < in.stormUntil {
		in.loadFactor = pebsStormFactor
	}
	return ev
}

// fire draws whether an event with the given MTBF occurs in a step of
// dt; a zero MTBF never fires and draws nothing.
func (in *Injector) fire(mtbf, dt int64) bool {
	return mtbf > 0 && in.rng.Bernoulli(float64(dt)/float64(mtbf))
}

// episode starts an episode of kind lasting d, announcing it in ev and
// recording its end in *until, if none is running at now and one fires
// at mtbf. It reports whether one started.
func (in *Injector) episode(ev *Events, kind EpisodeKind, until *int64, mtbf, d, now, dt int64) bool {
	if now < *until || !in.fire(mtbf, dt) {
		return false
	}
	*until = now + d
	ev.addEpisode(EpisodeStart{Kind: kind, Tier: vm.TierNone, Until: *until})
	return true
}

// DMADerate returns the bandwidth multiplier for surviving DMA channels
// (1 outside degraded episodes).
func (in *Injector) DMADerate() float64 { return in.dmaDerate }

// NVMDerate returns the NVM bandwidth multiplier (1 outside thermal
// episodes).
func (in *Injector) NVMDerate() float64 { return in.nvmDerate }

// PEBSLoadFactor returns the sample-inflow multiplier (1 outside storms).
func (in *Injector) PEBSLoadFactor() float64 { return in.loadFactor }

// MigrationAbort draws whether one page-copy attempt fails verification.
// It consumes randomness only when the abort fault is configured.
func (in *Injector) MigrationAbort() bool {
	if !in.on {
		return false
	}
	return in.rng.Bernoulli(in.cfg.MigrationAbortProb)
}

// Backoff returns the delay before an aborted migration's retry number
// retry (1-based): the base backoff doubled per subsequent retry, capped.
func Backoff(retry int) int64 {
	b := retryBackoff
	for i := 1; i < retry && b < retryBackoffMax; i++ {
		b *= 2
	}
	return min(b, retryBackoffMax)
}

// PickIndex draws a uniform index in [0, n) from the injector's stream
// (used to choose the NVM page an uncorrectable error strikes).
func (in *Injector) PickIndex(n int) int { return in.rng.Intn(n) }
