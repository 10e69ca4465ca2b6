package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/diurnal"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// This file is the performance harness (as opposed to the fidelity
// experiments in the rest of the package): it measures how fast the
// simulator itself runs — wall-clock, simulated-ns per wall-second, and
// allocations — over the three workload families the paper evaluates,
// verifies that repeated seeded runs produce bit-identical simulated
// results, and times the full experiment suite serially vs on the
// parallel sweep engine (sweep.go), checking the outputs byte-identical.
// `make bench` writes the report to $(BENCH_OUT) (BENCH_pr10.json by
// default) so perf regressions in the hot path (sampling, policy tick,
// migration queue) and in the harness show up as a diffable artifact; CI
// compares a fresh run against the committed baseline with cmd/perfdiff
// and warns on regressions.

// PerfResult is one scenario's measurement.
type PerfResult struct {
	ID string `json:"id"`
	// WallSeconds is the real time the timed run took.
	WallSeconds float64 `json:"wall_seconds"`
	// SimulatedNS is the simulated time the run covered.
	SimulatedNS int64 `json:"simulated_ns"`
	// SimNSPerSec is simulated nanoseconds advanced per wall-clock
	// second — the harness's primary throughput metric.
	SimNSPerSec float64 `json:"sim_ns_per_sec"`
	// Allocs and AllocBytes are heap allocations during the timed run.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Score is the workload's own figure of merit (GUPS, Mops, ...).
	Score float64 `json:"score"`
	// Digest fingerprints the simulated outcome (score bits, sample and
	// migration counters). Deterministic reports whether an identically
	// seeded rerun reproduced it bit-for-bit.
	Digest        string `json:"digest"`
	Deterministic bool   `json:"deterministic"`
	// ResidentBytes is the page-metadata footprint at the end of the run
	// (vm.AddressSpace.MetadataBytes — deterministic accounting, not heap
	// measurement). Only cases that exercise the sparse representation
	// report it; perfdiff flags >20% growth against the baseline.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	// IdleSimNSPerSec is simulated-ns per wall-second over the
	// phase-idle portions only, for cases with a phased schedule — the
	// portion the adaptive quantum accelerates.
	IdleSimNSPerSec float64 `json:"idle_sim_ns_per_sec,omitempty"`
}

// SweepPerf measures the parallel sweep engine: the full experiment
// suite run serially (one worker) and — when the host actually has more
// than one CPU — again on a worker pool, with the outputs compared byte
// for byte. On a 1-CPU host the parallel leg is skipped (a "speedup"
// measured there is just scheduling overhead, not a property of the
// engine) and Note says so.
type SweepPerf struct {
	// Experiments is the id set measured ("all").
	Experiments string `json:"experiments"`
	// Jobs is the worker pool size of the parallel leg, capped at NumCPU
	// so the comparison never oversubscribes the host.
	Jobs int `json:"jobs"`
	// NumCPU is runtime.NumCPU() on the measuring host — the context for
	// interpreting Speedup.
	NumCPU int `json:"num_cpu"`
	// SerialSeconds is the wall clock of the serial leg.
	// ParallelSeconds and Speedup are present only when the parallel leg
	// ran (NumCPU > 1).
	SerialSeconds   float64 `json:"serial_wall_seconds"`
	ParallelSeconds float64 `json:"parallel_wall_seconds,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	// IdenticalOutput reports whether the two legs produced byte-identical
	// experiment output (they must; see sweep.go). Absent when the
	// parallel leg was skipped.
	IdenticalOutput *bool `json:"identical_output,omitempty"`
	// OutputBytes is the size of the rendered suite output.
	OutputBytes int `json:"output_bytes"`
	// Note explains a skipped parallel leg.
	Note string `json:"note,omitempty"`
}

// PerfReport is the full harness output.
type PerfReport struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"num_cpu"`
	Seed      uint64       `json:"seed"`
	Cases     []PerfResult `json:"cases"`
	Sweep     *SweepPerf   `json:"sweep,omitempty"`
}

// mix folds v into an FNV-1a style accumulator.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

const digestSeed = 14695981039346656037

// perfOutcome is what one scenario run reports back to the harness.
// simNS, score and digest are always set; resident and the idle timings
// only by cases that exercise the sparse metadata / adaptive quantum.
type perfOutcome struct {
	simNS    int64
	score    float64
	digest   uint64
	resident int64
	// idleSimNS and idleWall cover the phase-idle portions of a phased
	// schedule, timed inside the case (the harness can only time the
	// whole run).
	idleSimNS int64
	idleWall  float64
}

// perfCase runs one scenario and returns the simulated span and an
// outcome digest.
type perfCase struct {
	id  string
	run func(seed uint64) perfOutcome
}

func perfGUPS(seed uint64) perfOutcome {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: 17,
	})
	m.Warm()
	m.Run(10 * sim.Second)
	g.ResetScore()
	m.Run(5 * sim.Second)
	d := uint64(digestSeed)
	d = mix(d, math.Float64bits(g.Score()))
	d = mix(d, uint64(m.Faults()))
	d = mix(d, uint64(m.Migrator.Stats().Pages))
	d = mix(d, math.Float64bits(m.Migrator.Stats().Bytes))
	d = mix(d, math.Float64bits(m.TotalOps("gups")))
	return perfOutcome{simNS: m.Clock.Now(), score: g.Score(), digest: d}
}

func perfKVS(seed uint64) perfOutcome {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	d := kvs.NewDriver(m, kvs.DriverConfig{
		WorkingSet: 300 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 17,
	})
	m.Warm()
	m.Run(10 * sim.Second)
	var sink countingWriter
	tel.WriteCSV(&sink)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(d.Mops()))
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	dg = mix(dg, uint64(sink.n))
	return perfOutcome{simNS: m.Clock.Now(), score: d.Mops(), digest: dg}
}

func perfGAP(seed uint64) perfOutcome {
	h := newHeMem()
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, h)
	d := gap.NewDriver(m, gap.DriverConfig{
		Scale: 28, Iterations: 3, EdgeVisitScale: 0.05, Seed: 17,
	})
	m.Warm()
	m.RunUntilDone(20000 * sim.Second)
	times := d.IterationTimes()
	dg := uint64(digestSeed)
	var last float64
	for _, t := range times {
		dg = mix(dg, uint64(t))
		last = float64(t) / 1e9
	}
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	return perfOutcome{simNS: m.Clock.Now(), score: last, digest: dg}
}

// perfTBScale runs the quick diurnal schedule for several simulated
// cycles, timing the idle phases separately from the bursts. The dense
// variant is the fixed-quantum baseline with all page metadata
// materialized up front; the adaptive variant is the event-driven loop
// over lazily materialized metadata. Their digests must match (same
// simulated outcome); the JSON report carries the idle-portion speedup
// and the resident metadata bytes.
func perfTBScale(adaptive bool) func(seed uint64) perfOutcome {
	return func(seed uint64) perfOutcome {
		mc := machine.DefaultConfig()
		mc.Seed = seed
		mc.AdaptiveQuantum = adaptive
		m := machine.New(mc, newHeMem())
		cfg, _ := tbscaleConfig(Opts{})
		d := diurnal.New(m, cfg)
		if !adaptive {
			d.Region().MaterializeAll()
		}
		out := perfOutcome{}
		const cycles = 20
		for c := 0; c < cycles; c++ {
			var cycleSimNS int64
			var cycleWall float64
			for _, ph := range cfg.Phases {
				start := time.Now()
				m.Run(ph.Duration)
				wall := time.Since(start).Seconds()
				if ph.WindowHi <= ph.WindowLo {
					cycleSimNS += ph.Duration
					cycleWall += wall
				}
			}
			// Idle throughput is the best cycle's (min-wall benchmarking):
			// a GC pause or scheduler preemption landing in one cycle's
			// idle span must not masquerade as a simulator slowdown. The
			// first cycle never wins — it faults the windows in and builds
			// their page sets.
			if c > 0 && (out.idleWall == 0 || float64(cycleSimNS)/cycleWall > float64(out.idleSimNS)/out.idleWall) {
				out.idleSimNS, out.idleWall = cycleSimNS, cycleWall
			}
		}
		dg := uint64(digestSeed)
		dg = mix(dg, math.Float64bits(d.ActiveOps()))
		dg = mix(dg, uint64(m.Faults()))
		dg = mix(dg, uint64(m.Migrator.Stats().Pages))
		out.simNS = m.Clock.Now()
		out.score = d.ActiveOps()
		out.digest = dg
		out.resident = m.AS.MetadataBytes()
		return out
	}
}

// perfFleet runs one fleet machine — churning QoS tenants through
// admission, the weighted-fair selectors, drain-on-departure, and the
// per-quantum auditor — so regressions in the tenant path (score scans,
// per-tenant accounting, audit cost) show up in the report.
func perfFleet(seed uint64) perfOutcome {
	o := Opts{}
	classes, _ := fleetClasses(o)
	const span = 8 * sim.Second
	r := fleetMachine(o, CellInfo{Exp: "perf-fleet", Seed: seed}, classes, 12, span)
	dg := uint64(digestSeed)
	for cl := 0; cl < machine.NumQoSClasses; cl++ {
		dg = mix(dg, r.hist[cl].Count())
		dg = mix(dg, math.Float64bits(r.hist[cl].Quantile(0.99)))
		dg = mix(dg, uint64(r.dramBytes[cl]))
		dg = mix(dg, uint64(r.mig[cl]))
	}
	dg = mix(dg, uint64(r.stats.Admitted))
	dg = mix(dg, uint64(r.stats.Queued))
	dg = mix(dg, uint64(r.stats.Departed))
	return perfOutcome{simNS: span, score: r.hist[machine.Gold].Quantile(0.99), digest: dg}
}

// perfTrackersIdlepage runs the trackers experiment's GUPS idlepage+hemem
// cell shape over a shorter span. A page-table pass completes every
// quantum, so the case times the idlepage tracker's scan pass: the
// simulator's hottest code when the tracker is in use.
func perfTrackersIdlepage(seed uint64) perfOutcome {
	mc := machine.DefaultConfig()
	mc.Seed = seed
	mc.Tiers = machine.ClassicTiers(6*sim.GB, 0, 0)
	h := core.New(core.Config{Tracker: "idlepage", Policy: "hemem"})
	m := machine.New(mc, h)
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 8 * sim.GB, Seed: 17,
	})
	m.Warm()
	m.Run(sim.Second)
	g.ResetScore()
	m.Run(500 * sim.Millisecond)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(g.Score()))
	for _, b := range []byte(fmt.Sprintf("%+v", h.Stats())) {
		dg = mix(dg, uint64(b))
	}
	dg = mix(dg, uint64(m.Migrator.Stats().Pages))
	return perfOutcome{simNS: m.Clock.Now(), score: g.Score(), digest: dg}
}

// perfKVSMemMode runs FlexKVS on Memory Mode in tab3's latency-cell
// shape over shorter spans: a closed-loop phase scored in Mops, then a
// phase at 30% offered load whose latency quantiles come from the cost
// branches. Memory Mode's traffic observer, closed-form cache model and
// cost branches make up most of the step time, so the case times the
// manager the PEBS-based cases never reach.
func perfKVSMemMode(seed uint64) perfOutcome {
	mc := machine.DefaultConfig()
	mc.Seed = seed
	m := machine.New(mc, newMM())
	d := kvs.NewDriver(m, kvs.DriverConfig{
		WorkingSet: 700 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9,
		NetBase: kvs.NetBaseTAS, Seed: 17,
	})
	m.Warm()
	m.Run(5 * sim.Second)
	d.ResetScore()
	m.Run(10 * sim.Second)
	mops := d.Mops()
	d.SetTargetRate(0.3 * 8 / (10 * 1000))
	d.ResetScore()
	m.Run(10 * sim.Second)
	dg := uint64(digestSeed)
	dg = mix(dg, math.Float64bits(mops))
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		dg = mix(dg, math.Float64bits(d.Latency().Quantile(q)))
	}
	return perfOutcome{simNS: m.Clock.Now(), score: mops, digest: dg}
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

var perfCases = []perfCase{
	{"gups", perfGUPS},
	{"kvs", perfKVS},
	{"gap-bc", perfGAP},
	{"tbscale-dense", perfTBScale(false)},
	{"tbscale-adaptive", perfTBScale(true)},
	{"fleet", perfFleet},
	{"trackers-idlepage", perfTrackersIdlepage},
	{"kvs-memmode", perfKVSMemMode},
}

// RunPerf executes every perf scenario twice — once to check seeded
// determinism, once timed with allocation accounting — and returns the
// report.
func RunPerf(o Opts) PerfReport {
	rep := PerfReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      o.seed(),
	}
	for _, c := range perfCases {
		check := c.run(o.seed())

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out := c.run(o.seed())
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)

		res := PerfResult{
			ID:            c.id,
			WallSeconds:   wall,
			SimulatedNS:   out.simNS,
			SimNSPerSec:   float64(out.simNS) / wall,
			Allocs:        after.Mallocs - before.Mallocs,
			AllocBytes:    after.TotalAlloc - before.TotalAlloc,
			Score:         out.score,
			Digest:        fmt.Sprintf("%016x", out.digest),
			Deterministic: check.digest == out.digest,
			ResidentBytes: out.resident,
		}
		if out.idleWall > 0 {
			res.IdleSimNSPerSec = float64(out.idleSimNS) / out.idleWall
		}
		rep.Cases = append(rep.Cases, res)
	}
	rep.Sweep = runSweepPerf(o)
	return rep
}

// runSweepPerf times the full experiment suite serially and on the worker
// pool and verifies the outputs match byte for byte.
func runSweepPerf(o Opts) *SweepPerf {
	runAll := func(jobs int) (string, float64) {
		var buf strings.Builder
		ro := o
		ro.Jobs = jobs
		start := time.Now()
		for _, e := range All() {
			fmt.Fprintf(&buf, "=== %s ===\n", e.ID)
			e.Run(&buf, ro)
		}
		return buf.String(), time.Since(start).Seconds()
	}
	numCPU := runtime.NumCPU()
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 4 {
		jobs = 4
	}
	// A pool wider than the host's CPUs can only add scheduling overhead;
	// the byte-identity of arbitrary widths is covered by sweep_test.go.
	if jobs > numCPU {
		jobs = numCPU
	}
	serialOut, serialWall := runAll(1)
	s := &SweepPerf{
		Experiments:   "all",
		Jobs:          jobs,
		NumCPU:        numCPU,
		SerialSeconds: serialWall,
		OutputBytes:   len(serialOut),
	}
	if numCPU == 1 {
		s.Note = "parallel comparison skipped: host has 1 CPU, a worker pool cannot speed it up"
		return s
	}
	parOut, parWall := runAll(jobs)
	ident := serialOut == parOut
	s.ParallelSeconds = parWall
	s.Speedup = serialWall / parWall
	s.IdenticalOutput = &ident
	return s
}

// WritePerf runs the harness and writes the JSON report plus a short
// human-readable summary line per case.
func WritePerf(jsonOut io.Writer, log io.Writer, o Opts) error {
	rep := RunPerf(o)
	for _, c := range rep.Cases {
		det := "deterministic"
		if !c.Deterministic {
			det = "NON-DETERMINISTIC"
		}
		extra := ""
		if c.IdleSimNSPerSec > 0 {
			extra = fmt.Sprintf("  idle %8.2e sim-ns/s", c.IdleSimNSPerSec)
		}
		if c.ResidentBytes > 0 {
			extra += fmt.Sprintf("  resident %.2f MiB", float64(c.ResidentBytes)/(1<<20))
		}
		fmt.Fprintf(log, "%-17s %6.2fs wall  %8.2e sim-ns/s  %9d allocs  score=%.4g  %s%s\n",
			c.ID, c.WallSeconds, c.SimNSPerSec, c.Allocs, c.Score, det, extra)
	}
	if s := rep.Sweep; s != nil {
		if s.IdenticalOutput == nil {
			fmt.Fprintf(log, "sweep    serial %.1fs  (%s)\n", s.SerialSeconds, s.Note)
		} else {
			ident := "byte-identical"
			if !*s.IdenticalOutput {
				ident = "OUTPUT MISMATCH"
			}
			fmt.Fprintf(log, "sweep    serial %.1fs  jobs=%d/%d cpus %.1fs  speedup %.2fx  %s\n",
				s.SerialSeconds, s.Jobs, s.NumCPU, s.ParallelSeconds, s.Speedup, ident)
		}
	}
	enc := json.NewEncoder(jsonOut)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
