package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/tieredmem/hemem"
	"github.com/tieredmem/hemem/internal/diurnal"
)

// The workloads build everything through the public constructors
// (hemem.NewMachine, NewHeMem, NewMemoryMode, NewGUPS, NewKVS,
// RunExperiment) plus internal/diurnal's New, size tiers only through
// MachineConfig.Tiers, and leave the machine's stepping loop, shard count
// and legacy size fields at their defaults, so refactors behind those
// constructors need no change here.

// sizes fixes how much simulated work one repetition does. Every commit
// runs benchSizes; tests run a tiny variant.
type sizes struct {
	gupsPEBS     int64 // simulated window, a multiple of gupsShiftEvery
	gupsIdlepage int64
	kvsClosed    int64 // closed-loop half of the window
	kvsLoaded    int64 // 30%-load half
	diurnalDays  int   // repetitions of the 60 s quick schedule
	fleetTenants int   // tenants per fleet machine
}

var benchSizes = sizes{
	gupsPEBS:     300 * hemem.Second,
	gupsIdlepage: 1 * hemem.Second,
	kvsClosed:    25 * hemem.Second,
	kvsLoaded:    25 * hemem.Second,
	diurnalDays:  40,
	fleetTenants: 12,
}

const (
	gupsShiftEvery = 10 * hemem.Second
	gupsShiftBytes = 4 * hemem.GB
	// kvsLoad is tab3's latency cell: 30% of 8 threads at a 10 µs service
	// time, in ops/ns.
	kvsLoad = 0.3 * 8 / (10 * 1000)
	// fleetSpan is the fleet experiment's simulated span per machine at
	// quick scale.
	fleetSpan = 8 * hemem.Second
)

// rep is one repetition's context: the seed, the sizes, and the tracer
// (nil when untraced).
type rep struct {
	seed  uint64
	sizes sizes
	tr    *tracer

	setupDone func() // marks the end of set-up
	hostNS    int64  // timed window
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// window times f as the repetition's measured window.
func (r *rep) window(f func()) {
	r.setupDone()
	runtime.ReadMemStats(&r.mem0)
	if r.tr != nil {
		r.tr.startWindow()
	}
	start := time.Now()
	f()
	r.hostNS = int64(time.Since(start))
	if r.tr != nil {
		r.tr.stopWindow()
	}
	runtime.ReadMemStats(&r.mem1)
}

func (r *rep) heMem(h *hemem.HeMem) hemem.Manager {
	if r.tr == nil {
		return h
	}
	return tracedHeMem{h, r.tr}
}

func (r *rep) memoryMode(mm *hemem.MemoryMode) hemem.Manager {
	if r.tr == nil {
		return mm
	}
	return tracedMM{mm, r.tr}
}

func (r *rep) machineConfig() hemem.MachineConfig {
	c := hemem.DefaultMachineConfig()
	c.Seed = r.seed
	return c
}

// outcome is what a repetition produced: the simulated span of its
// window, the digest material, and the deterministic metrics read after
// the window.
type outcome struct {
	simNS   int64
	digest  []string
	metrics map[string]float64
}

func (o *outcome) add(name string, v float64) { o.metrics[name] = v }

// digestOf fingerprints a repetition's outcome.
func digestOf(parts []string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:8])
}

func bitsOf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// workload is one benchmark input. run builds it, calls r.window around
// the measured part, checks the outputs and returns the outcome.
type workload struct {
	name string
	why  string
	run  func(r *rep) (outcome, error)
}

var workloads = []workload{
	{
		name: "gups-pebs",
		why:  "The paper's main path: PEBS feed, drain and classification, policy tick and migrator all busy under a shifting hot set; never enters idlepage or Memory Mode.",
		run:  runGUPSPEBS,
	},
	{
		name: "gups-idlepage",
		why:  "ROADMAP item 1's hot spot: the idlepage tracker's page-table pass dominates every step; no PEBS samples are fed.",
		run:  runGUPSIdlepage,
	},
	{
		name: "kvs-memmode",
		why:  "Memory Mode's Monte-Carlo cache model, cost branches and latency histogram on FlexKVS; never reaches HeMem's tracker or policy.",
		run:  runKVSMemoryMode,
	},
	{
		name: "diurnal-idle",
		why:  "About 83% of simulated time has no traffic: the only workload an event-driven loop or cheaper idle steps can speed up.",
		run:  runDiurnalIdle,
	},
	{
		name: "fleet-qos",
		why:  "The only multi-core workload: sweep-engine parallelism, tenant selectors, the per-quantum audit and GC-heavy small machines.",
		run:  runFleetQoS,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// machineOutcome collects the outcome shared by the single-machine
// workloads: score, faults, migrations, manager counters, page metadata
// and NVM wear.
func machineOutcome(m *hemem.Machine, h *hemem.HeMem, mm *hemem.MemoryMode, simNS int64, appMops float64) outcome {
	o := outcome{simNS: simNS, metrics: map[string]float64{}}
	ms := m.Migrator.Stats()
	o.digest = append(o.digest,
		"score="+bitsOf(appMops),
		fmt.Sprintf("faults=%d", m.Faults()),
		fmt.Sprintf("migrator=%d/%s", ms.Pages, bitsOf(ms.Bytes)))
	o.add("sim_app_mops", appMops)
	o.add("machine.faults", float64(m.Faults()))
	o.add("machine.migrator.pages", float64(ms.Pages))
	o.add("machine.migrator.gib", ms.Bytes/float64(hemem.GB))
	o.add("vm.metadata_mib", float64(m.AS.MetadataBytes())/(1<<20))
	o.add("vm.touched_pages", float64(m.AS.TouchedPages()))
	o.add("mem.nvm.write_gib", m.NVM.Wear().WriteBytes/float64(hemem.GB))
	if h != nil {
		st := h.Stats()
		o.digest = append(o.digest, fmt.Sprintf("core=%+v", st))
		o.add("core.samples", float64(st.Samples))
		o.add("core.promotions", float64(st.Promotions))
		o.add("core.demotions", float64(st.Demotions))
		o.add("core.cool_epochs", float64(st.CoolEpochs))
		var pushed, dropped float64
		if b := h.Buffer(); b != nil {
			pushed, dropped = float64(b.Pushed()), float64(b.Dropped())
		}
		o.add("pebs.pushed", pushed)
		o.add("pebs.dropped", dropped)
		frac := 0.0
		if pushed+dropped > 0 {
			frac = dropped / (pushed + dropped)
		}
		o.add("pebs.drop_frac", frac)
	}
	if mm != nil {
		built, reused := mm.ModelRowStats()
		o.add("memmode.rows_built", float64(built))
		o.add("memmode.rows_reused", float64(reused))
		frac := 0.0
		if built+reused > 0 {
			frac = float64(reused) / float64(built+reused)
		}
		o.add("memmode.row_reuse_frac", frac)
	}
	return o
}

// hotInFast is the fraction of the ground-truth hot pages resident in the
// fastest tier.
func hotInFast(m *hemem.Machine, g *hemem.GUPS) float64 {
	return g.HotPages().Frac(m.FastestTier())
}

// runGUPSPEBS is the default HeMem on the default testbed (192 GB DRAM,
// 768 GB NVM) under GUPS with a 512 GB working set and a 16 GB hot set,
// 4 GB of which shifts every 10 simulated seconds (the paper's Fig 9,
// made periodic).
func runGUPSPEBS(r *rep) (outcome, error) {
	h := hemem.NewHeMem(hemem.DefaultHeMemConfig())
	m := hemem.NewMachine(r.machineConfig(), r.heMem(h))
	g := hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 512 * hemem.GB, HotSet: 16 * hemem.GB, Seed: r.seed,
	})
	m.Warm()
	g.ResetScore()
	span := r.sizes.gupsPEBS
	r.window(func() {
		for k := int64(0); k < span/gupsShiftEvery; k++ {
			m.Run(gupsShiftEvery)
			g.ShiftHotSet(gupsShiftBytes, r.seed+uint64(k))
		}
	})
	o := machineOutcome(m, h, nil, span, g.Score()*1e3)
	hot := hotInFast(m, g)
	o.add("sim_hot_in_fast", hot)
	o.digest = append(o.digest, "hot="+bitsOf(hot))
	switch {
	case g.Score() <= 0:
		return o, fmt.Errorf("no GUPS updates")
	case hot < 0 || hot > 1:
		return o, fmt.Errorf("hot-in-fast %v outside [0,1]", hot)
	case o.metrics["machine.migrator.pages"] == 0:
		return o, fmt.Errorf("no migrations under a shifting hot set")
	case o.metrics["pebs.pushed"] == 0:
		return o, fmt.Errorf("no PEBS samples")
	}
	return o, nil
}

// runGUPSIdlepage is HeMem with the idlepage tracker on a 3 GB DRAM tier
// over 768 GB NVM, under GUPS with a 16 GB working set and a 4 GB hot set.
func runGUPSIdlepage(r *rep) (outcome, error) {
	h := hemem.NewHeMem(hemem.HeMemConfig{Tracker: "idlepage", Policy: "hemem"})
	cfg := r.machineConfig()
	cfg.Tiers = []hemem.TierDesc{
		{ID: hemem.TierDRAM, Capacity: 3 * hemem.GB},
		{ID: hemem.TierNVM, Capacity: 768 * hemem.GB},
	}
	m := hemem.NewMachine(cfg, r.heMem(h))
	g := hemem.NewGUPS(m, hemem.GUPSConfig{
		Threads: 16, WorkingSet: 16 * hemem.GB, HotSet: 4 * hemem.GB, Seed: r.seed,
	})
	m.Warm()
	g.ResetScore()
	r.window(func() { m.Run(r.sizes.gupsIdlepage) })
	o := machineOutcome(m, h, nil, r.sizes.gupsIdlepage, g.Score()*1e3)
	hot := hotInFast(m, g)
	o.add("sim_hot_in_fast", hot)
	o.digest = append(o.digest, "hot="+bitsOf(hot))
	switch {
	case g.Score() <= 0:
		return o, fmt.Errorf("no GUPS updates")
	case hot < 0 || hot > 1:
		return o, fmt.Errorf("hot-in-fast %v outside [0,1]", hot)
	case o.metrics["pebs.pushed"] != 0:
		return o, fmt.Errorf("idlepage tracker was fed %v PEBS samples", o.metrics["pebs.pushed"])
	}
	return o, nil
}

// runKVSMemoryMode is Memory Mode under FlexKVS with a 700 GB working
// set, 20% hot keys taking 90% of the traffic: a closed-loop half, then a
// half at 30% offered load whose latency quantiles are tab3's latency
// cell.
func runKVSMemoryMode(r *rep) (outcome, error) {
	mm := hemem.NewMemoryMode()
	m := hemem.NewMachine(r.machineConfig(), r.memoryMode(mm))
	d := hemem.NewKVS(m, hemem.KVSConfig{
		WorkingSet: 700 * hemem.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: r.seed,
	})
	m.Warm()
	d.ResetScore()
	var mops float64
	r.window(func() {
		m.Run(r.sizes.kvsClosed)
		mops = d.Mops()
		d.SetTargetRate(kvsLoad)
		d.ResetScore()
		m.Run(r.sizes.kvsLoaded)
	})
	o := machineOutcome(m, nil, mm, r.sizes.kvsClosed+r.sizes.kvsLoaded, mops)
	lat := d.Latency()
	var qs [4]float64
	for i, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		qs[i] = lat.Quantile(q)
		o.digest = append(o.digest, fmt.Sprintf("lat%v=%s", q, bitsOf(qs[i])))
	}
	o.add("sim_p99_ns", qs[2])
	switch {
	case mops <= 0:
		return o, fmt.Errorf("no closed-loop throughput")
	case !(qs[0] > 0 && qs[0] <= qs[2]):
		return o, fmt.Errorf("latency quantiles out of order: p50 %v, p99 %v", qs[0], qs[2])
	case o.metrics["memmode.rows_built"] == 0:
		return o, fmt.Errorf("the Memory Mode model never ran")
	}
	return o, nil
}

// diurnalPhases is tbscale's quick schedule: a 64 GB mapping with two
// 5 s bursts over 5% windows in every 60 s day, idle in between.
var diurnalPhases = []diurnal.Phase{
	{Duration: 10 * hemem.Second},
	{Duration: 5 * hemem.Second, WindowLo: 0.00, WindowHi: 0.05},
	{Duration: 20 * hemem.Second},
	{Duration: 5 * hemem.Second, WindowLo: 0.50, WindowHi: 0.55},
	{Duration: 20 * hemem.Second},
}

// runDiurnalIdle is default HeMem on the default testbed running the
// quick diurnal schedule day after day on the default stepping loop.
func runDiurnalIdle(r *rep) (outcome, error) {
	h := hemem.NewHeMem(hemem.DefaultHeMemConfig())
	m := hemem.NewMachine(r.machineConfig(), r.heMem(h))
	d := diurnal.New(m, diurnal.Config{
		Name: "diurnal", WorkingSet: 64 * hemem.GB, Threads: 16, Phases: diurnalPhases,
	})
	var day, burst int64
	for _, ph := range diurnalPhases {
		day += ph.Duration
		if ph.WindowHi > ph.WindowLo {
			burst += ph.Duration
		}
	}
	days := int64(r.sizes.diurnalDays)
	r.window(func() { m.Run(days * day) })
	mops := d.ActiveOps() / (float64(days*burst) / 1e9) / 1e6
	o := machineOutcome(m, h, nil, days*day, mops)
	switch {
	case mops <= 0:
		return o, fmt.Errorf("no burst traffic")
	case m.Faults() != int64(d.FaultedPages()) || m.Faults() == 0:
		return o, fmt.Errorf("faults %d do not match the %d pages the bursts touched", m.Faults(), d.FaultedPages())
	}
	return o, nil
}

// runFleetQoS is the fleet experiment at quick scale: machines × churning
// gold/silver/besteffort tenants with the auditor on every quantum, its
// cells spread over every CPU.
func runFleetQoS(r *rep) (outcome, error) {
	jobs := runtime.NumCPU()
	opts := hemem.ExperimentOpts{Seed: r.seed, Jobs: jobs, Tenants: r.sizes.fleetTenants}
	var cells cellClock
	if r.tr != nil {
		opts.Progress = &cells
	}
	var table bytes.Buffer
	var ok bool
	r.window(func() {
		cells.start = time.Now()
		ok = hemem.RunExperiment("fleet", &table, opts)
	})
	o := outcome{metrics: map[string]float64{}}
	sum := sha256.Sum256(table.Bytes())
	o.digest = []string{hex.EncodeToString(sum[:])}
	if !ok {
		return o, fmt.Errorf("fleet experiment not registered")
	}
	var admitted, machines int64
	var goldP99 float64
	sc := bufio.NewScanner(bytes.NewReader(table.Bytes()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 4 && f[0] == "gold":
			goldP99, _ = strconv.ParseFloat(f[3], 64)
		case len(f) > 0 && f[0] == "lifecycle:":
			fmt.Sscanf(sc.Text(), "lifecycle: %d admitted", &admitted)
			if i := strings.Index(sc.Text(), " across "); i >= 0 {
				fmt.Sscanf(sc.Text()[i:], " across %d machines", &machines)
			}
		}
	}
	o.simNS = machines * fleetSpan
	o.add("sim_p99_ns", goldP99)
	if r.tr != nil {
		if err := cells.metrics(o.metrics, jobs, float64(r.hostNS)/1e9); err != nil {
			return o, err
		}
	}
	switch {
	case machines == 0 || admitted == 0:
		return o, fmt.Errorf("fleet table lacks its lifecycle line:\n%s", table.String())
	case goldP99 <= 0:
		return o, fmt.Errorf("fleet table lacks a gold-class p99")
	case !strings.Contains(table.String(), "zero violations"):
		return o, fmt.Errorf("fleet auditor line missing")
	}
	return o, nil
}

// cellClock receives the sweep engine's per-cell narration ("cell 3/16
// fleet/machine=2 done in 0.2s") and notes when each line arrives. The
// sweep writes it under a lock, one line per Write.
type cellClock struct {
	start time.Time
	ends  []float64 // seconds since start
}

func (c *cellClock) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("cell ")) {
		c.ends = append(c.ends, time.Since(c.start).Seconds())
	}
	return len(p), nil
}

// metrics derives the sweep's busy time from the completion times alone.
// Workers take the next cell as soon as they finish one, so the first
// `jobs` cells start at 0 and each later cell starts at an earlier cell's
// completion; the busy time, the sum of completions minus the sum of
// starts, is then the sum of the last `jobs` completions. The narrated
// durations are rounded to 0.1 s, too coarse for cells this short.
func (c *cellClock) metrics(m map[string]float64, jobs int, wall float64) error {
	n := len(c.ends)
	if n == 0 {
		return fmt.Errorf("sweep narrated no cells")
	}
	jobs = min(jobs, n)
	ends := sortedCopy(c.ends)
	var busy float64
	for _, e := range ends[n-jobs:] {
		busy += e
	}
	m["bench.cells"] = float64(n)
	m["bench.cell.mean_s"] = busy / float64(n)
	m["bench.sweep.busy_frac"] = busy / (float64(jobs) * wall)
	return nil
}
