package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// namedMgr pairs a report label with a manager constructor.
type namedMgr struct {
	name string
	mk   func() machine.Manager
}

// scoreGrid declares one cell per (row, system) pair running a GUPS
// configuration, gathers them, and prints the row-major score table.
func scoreGrid(w io.Writer, s *Sweep, header string, rows []string, systems []namedMgr,
	run func(row int, sys namedMgr) float64, footer string) {
	for r := range rows {
		for _, sys := range systems {
			s.Cell(rows[r]+"/"+sys.name, func(CellInfo) any { return run(r, sys) })
		}
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, header)
	i := 0
	for r := range rows {
		fmt.Fprintf(tw, "%s", rows[r])
		for range systems {
			fmt.Fprintf(tw, "\t%.4f", f64(res[i]))
			i++
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, footer)
}

// runFig5: uniform random GUPS over growing working sets for five systems.
func runFig5(w io.Writer, o Opts) {
	warm := o.scale(10, 60) * sim.Second
	measure := o.scale(5, 30) * sim.Second
	systems := []namedMgr{
		{"DRAM", newDRAM}, {"NVM", newNVM}, {"MM", newMM}, {"Nimble", newNimble}, {"HeMem", newHeMem},
		// The paper compares HeMem and MM explicitly with more threads.
		{"MM-24thr", newMM}, {"HeMem-24thr", newHeMem},
	}
	sizes := []int64{1, 8, 32, 64, 96, 128, 160, 192, 256}
	rows := make([]string, len(sizes))
	for i, wsGB := range sizes {
		rows[i] = fmt.Sprintf("%d", wsGB)
	}
	scoreGrid(w, NewSweep("fig5", o),
		"ws(GB)\tDRAM\tNVM\tMM\tNimble\tHeMem\tMM-24thr\tHeMem-24thr",
		rows, systems,
		func(row int, sys namedMgr) float64 {
			threads := 16
			if sys.name == "MM-24thr" || sys.name == "HeMem-24thr" {
				threads = 24
			}
			return gupsRun(sys.mk(), gups.Config{
				Threads: threads, WorkingSet: sizes[row] * sim.GB, Seed: o.seed(),
			}, warm, measure)
		},
		"GUPS, 16 threads (plus 24-thread MM/HeMem); paper: HeMem=MM=DRAM when <=32GB; HeMem 3.2x MM at 128GB (3.7x at 24 thr); all near NVM beyond DRAM")
}

// runFig6: fixed 512 GB working set, growing hot set.
func runFig6(w io.Writer, o Opts) {
	warm := o.scale(90, 300) * sim.Second
	measure := o.scale(15, 60) * sim.Second
	systems := []namedMgr{
		{"MM", newMM}, {"Nimble", newNimble}, {"HeMem", newHeMem},
		{"MM-24thr", newMM}, {"HeMem-24thr", newHeMem},
	}
	sizes := []int64{1, 4, 8, 16, 32, 64, 128, 256}
	rows := make([]string, len(sizes))
	for i, hotGB := range sizes {
		rows[i] = fmt.Sprintf("%d", hotGB)
	}
	scoreGrid(w, NewSweep("fig6", o),
		"hot(GB)\tMM\tNimble\tHeMem\tMM-24thr\tHeMem-24thr",
		rows, systems,
		func(row int, sys namedMgr) float64 {
			threads := 16
			if sys.name == "MM-24thr" || sys.name == "HeMem-24thr" {
				threads = 24
			}
			return gupsRun(sys.mk(), gups.Config{
				Threads: threads, WorkingSet: 512 * sim.GB, HotSet: sizes[row] * sim.GB, Seed: o.seed(),
			}, warm, measure)
		},
		"GUPS; paper: HeMem holds while hot fits DRAM (up to 2x MM); Nimble ~25% of MM; all converge once hot set exceeds DRAM; at 24 threads MM leads below 8GB hot")
}

// runFig7: thread scalability on the dynamic hot-set experiment ("we run
// the dynamic hot set experiment with different thread counts and report
// the average GUPS") — migration stays active, so the copy-thread backend
// pays its four cores where DMA pays none.
func runFig7(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(40, 120) * sim.Second
	heThreads := func() machine.Manager {
		cfg := core.DefaultConfig()
		cfg.NoDMA = true
		return core.New(cfg)
	}
	systems := []namedMgr{{"MM", newMM}, {"HeMem(DMA)", newHeMem}, {"HeMem(4 copy thr)", heThreads}}
	counts := []int{1, 4, 8, 12, 16, 20, 21, 22, 24}
	rows := make([]string, len(counts))
	for i, threads := range counts {
		rows[i] = fmt.Sprintf("%d", threads)
	}
	scoreGrid(w, NewSweep("fig7", o),
		"threads\tMM\tHeMem(DMA)\tHeMem(4 copy thr)",
		rows, systems,
		func(row int, sys namedMgr) float64 {
			m := machine.New(machine.DefaultConfig(), sys.mk())
			g := gups.New(m, gups.Config{
				Threads: counts[row], WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed(),
			})
			m.Warm()
			m.Run(warm)
			g.ResetScore()
			// Shift part of the hot set so migration runs throughout
			// the measurement window.
			g.ShiftHotSet(4*sim.GB, o.seed()+31)
			m.Run(measure)
			return g.Score()
		},
		"GUPS; paper: beyond 21 threads HeMem's background threads cost ~10% vs MM; copy threads cost a further 14%")
}

// runTab2: the asymmetric read/write experiment — 512 GB working set,
// 256 GB hot of which 128 GB is write-only.
func runTab2(w io.Writer, o Opts) {
	warm := o.scale(120, 300) * sim.Second
	measure := o.scale(30, 60) * sim.Second
	cfg := gups.Config{
		Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 256 * sim.GB,
		WriteOnlyHot: 128 * sim.GB, Seed: o.seed(),
	}
	systems := []namedMgr{{"Nimble", newNimble}, {"MM", newMM}, {"HeMem", newHeMem}}
	s := NewSweep("tab2", o)
	for _, sys := range systems {
		s.Cell(sys.name, func(CellInfo) any { return gupsRun(sys.mk(), cfg, warm, measure) })
	}
	res := s.Gather()
	he := f64(res[len(res)-1])
	tw := table(w)
	fmt.Fprintln(tw, "System\tGUPS\tx")
	for i, sys := range systems {
		fmt.Fprintf(tw, "%s\t%.4f\t%.2f\n", sys.name, f64(res[i]), f64(res[i])/he)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: Nimble 0.020 (0.36x), MM 0.048 (0.86x), HeMem 0.056 (1x)")
}

// runFig8: the overhead breakdown — manual placement (Opt), PEBS tracking
// only, PT scanning only, then each with migration enabled.
func runFig8(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(15, 60) * sim.Second
	gcfg := gups.Config{Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed()}

	// Manual placement is the Opt baseline's rule: the known hot set in
	// DRAM at first touch, remaining DRAM filled with cold pages
	// (reserving room for hot pages not yet touched).
	manual := func(m *machine.Machine, g *gups.GUPS) func(p *vm.Page) vm.Tier {
		place := xmem.OptPlacement(g.HotPages())
		return func(p *vm.Page) vm.Tier { return place(m, p) }
	}

	type cfgFn func(m *machine.Machine, g *gups.GUPS) machine.Manager
	bars := []struct {
		name string
		mk   cfgFn
	}{
		{"Opt", func(m *machine.Machine, g *gups.GUPS) machine.Manager { return xmem.Opt(g.HotPages()) }},
		{"PEBS", func(m *machine.Machine, g *gups.GUPS) machine.Manager {
			cfg := core.DefaultConfig()
			cfg.NoMigration = true
			cfg.PlaceFunc = manual(m, g)
			return core.New(cfg)
		}},
		{"PT Scan", func(m *machine.Machine, g *gups.GUPS) machine.Manager { return ptscan.ScanOnly(manual(m, g)) }},
		{"PEBS + Migrate", func(m *machine.Machine, g *gups.GUPS) machine.Manager { return core.New(core.DefaultConfig()) }},
		{"PT Scan + M. Sync", func(m *machine.Machine, g *gups.GUPS) machine.Manager { return ptscan.HeMemPTSync() }},
		{"PT Scan + M. Async", func(m *machine.Machine, g *gups.GUPS) machine.Manager { return ptscan.HeMemPTAsync() }},
	}
	s := NewSweep("fig8", o)
	for _, b := range bars {
		s.Cell(b.name, func(CellInfo) any {
			// Two-phase construction: the manager needs the workload's
			// hot set, which needs the machine.
			boot := machine.New(machine.DefaultConfig(), xmem.NVMOnly())
			g := gups.New(boot, gcfg)
			boot.SetManager(b.mk(boot, g))
			boot.Warm()
			boot.Run(warm)
			g.ResetScore()
			boot.Run(measure)
			return g.Score()
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "Configuration\tGUPS\tvs Opt")
	opt := f64(res[0])
	for i, b := range bars {
		fmt.Fprintf(tw, "%s\t%.4f\t%.2f\n", b.name, f64(res[i]), f64(res[i])/opt)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: PEBS ~= Opt; PT Scan -18%; PEBS+Migrate within 5.9% of Opt; M.Sync 18% of Opt; M.Async 43% of Opt")
}

// runFig9: instantaneous GUPS over time with a hot set shift.
func runFig9(w io.Writer, o Opts) {
	pre := o.scale(60, 150) * sim.Second
	post := o.scale(60, 150) * sim.Second
	systems := []namedMgr{
		{"MM", newMM}, {"HeMem", newHeMem}, {"Nimble", newNimble}, {"HeMem-PT-Async", newPTAsync},
	}
	var times []int64
	step := (pre + post) / 24
	for t := step; t <= pre+post; t += step {
		times = append(times, t)
	}
	s := NewSweep("fig9", o)
	for _, sys := range systems {
		s.Cell(sys.name, func(CellInfo) any {
			m := machine.New(machine.DefaultConfig(), sys.mk())
			g := gups.New(m, gups.Config{
				Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed(),
			})
			m.Warm()
			m.Run(pre)
			g.ShiftHotSet(4*sim.GB, o.seed()+99)
			m.Run(post)
			ts := m.Throughput(g.Name())
			vals := make([]float64, 0, len(times))
			for _, t := range times {
				vals = append(vals, ts.At(t)/1e9)
			}
			return vals
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprint(tw, "t(s)")
	for _, sys := range systems {
		fmt.Fprintf(tw, "\t%s", sys.name)
	}
	fmt.Fprintln(tw)
	for i, t := range times {
		fmt.Fprintf(tw, "%d", t/sim.Second)
		for _, vals := range res {
			fmt.Fprintf(tw, "\t%.4f", vals.([]float64)[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "GUPS; hot set shifts at t=%ds; paper: HeMem and MM recover within ~20s; PT-Async stays at ~54%% of HeMem\n", pre/sim.Second)
}

// runFig10: PEBS sampling period sweep with drop fractions.
func runFig10(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(15, 60) * sim.Second
	periods := []float64{250, 1000, 5000, 20000, 100000, 500000, 1000000}
	type periodRes struct {
		score, dropped float64
	}
	s := NewSweep("fig10", o)
	for _, period := range periods {
		s.Cell(fmt.Sprintf("period=%.0f", period), func(CellInfo) any {
			cfg := core.DefaultConfig()
			cfg.SamplePeriod = period
			h := core.New(cfg)
			m := machine.New(machine.DefaultConfig(), h)
			g := gups.New(m, gups.Config{
				Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed(),
			})
			m.Warm()
			m.Run(warm)
			g.ResetScore()
			m.Run(measure)
			return periodRes{g.Score(), h.Buffer().DropFraction()}
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "period\tGUPS\tdropped")
	for i, period := range periods {
		r := res[i].(periodRes)
		fmt.Fprintf(tw, "%.0f\t%.4f\t%.2f%%\n", period, r.score, r.dropped*100)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: up to 30% drops below 1k; 5k-100k good; >100k too coarse to track the hot set")
}

// runFig11: hot read threshold sweep (write threshold at half).
func runFig11(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(15, 60) * sim.Second
	thresholds := []int{2, 4, 6, 8, 12, 16, 24, 32}
	s := NewSweep("fig11", o)
	for _, th := range thresholds {
		s.Cell(fmt.Sprintf("threshold=%d", th), func(CellInfo) any {
			cfg := core.DefaultConfig()
			cfg.HotReadThreshold = th
			cfg.HotWriteThreshold = (th + 1) / 2
			return gupsRun(core.New(cfg), gups.Config{
				Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed(),
			}, warm, measure)
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "threshold\tGUPS")
	for i, th := range thresholds {
		fmt.Fprintf(tw, "%d\t%.4f\n", th, f64(res[i]))
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: low thresholds overestimate the hot set; 6-20 good; >20 underestimates (slow identification)")
}

// runFig12: cooling threshold sweep on the dynamic hot-set experiment —
// the score is measured after the shift, while adaptation is underway.
func runFig12(w io.Writer, o Opts) {
	pre := o.scale(90, 150) * sim.Second
	post := o.scale(60, 150) * sim.Second
	thresholds := []int{8, 10, 18, 30}
	s := NewSweep("fig12", o)
	for _, ct := range thresholds {
		s.Cell(fmt.Sprintf("cooling=%d", ct), func(CellInfo) any {
			cfg := core.DefaultConfig()
			cfg.CoolThreshold = ct
			h := core.New(cfg)
			m := machine.New(machine.DefaultConfig(), h)
			g := gups.New(m, gups.Config{
				Threads: 16, WorkingSet: 512 * sim.GB, HotSet: 16 * sim.GB, Seed: o.seed(),
			})
			m.Warm()
			m.Run(pre)
			g.ShiftHotSet(4*sim.GB, o.seed()+7)
			g.ResetScore()
			m.Run(post)
			return g.Score()
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "cooling\tGUPS(after shift)")
	for i, ct := range thresholds {
		fmt.Fprintf(tw, "%d\t%.4f\n", ct, f64(res[i]))
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: cooling == hot threshold (8) too aggressive; higher adapts faster; 30 keeps too many pages hot")
}
