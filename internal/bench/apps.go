package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/tpcc"
)

// runFig13: TPC-C throughput over warehouse counts for four systems.
func runFig13(w io.Writer, o Opts) {
	warm := o.scale(90, 240) * sim.Second
	measure := o.scale(20, 60) * sim.Second
	systems := []namedMgr{{"MM", newMM}, {"Nimble", newNimble}, {"HeMem", newHeMem}, {"NVM(X-Mem)", newNVM}}
	counts := []int{16, 64, 216, 432, 700, 864, 1200, 1728}
	s := NewSweep("fig13", o)
	for _, wh := range counts {
		for _, sys := range systems {
			s.Cell(fmt.Sprintf("wh=%d/%s", wh, sys.name), func(CellInfo) any {
				m := machine.New(machine.DefaultConfig(), sys.mk())
				d := tpcc.NewDriver(m, tpcc.DriverConfig{Warehouses: wh, Seed: o.seed()})
				m.Warm()
				m.Run(warm)
				d.ResetScore()
				m.Run(measure)
				return d.TPS()
			})
		}
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprintln(tw, "warehouses\tMM\tNimble\tHeMem\tNVM(X-Mem)")
	i := 0
	for _, wh := range counts {
		fmt.Fprintf(tw, "%d", wh)
		for range systems {
			fmt.Fprintf(tw, "\t%.0f", f64(res[i]))
			i++
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "tx/s, 16 threads; paper: HeMem up to +13% over MM and +82% over Nimble while warehouses fit DRAM (864 max); X-Mem at 32% of HeMem")
	fmt.Fprintln(w, "known deviation: beyond 864 warehouses the paper has MM +17% over HeMem; our 64B-writeback amplification model keeps MM below HeMem there")
}

// runTab3: FlexKVS throughput at three working set sizes plus latency
// percentiles at 30% load on the 700 GB set.
func runTab3(w io.Writer, o Opts) {
	// HeMem's identification of the 140 GB hot item set through 4 KB-value
	// sampling converges slowly; give it a long warm-up even in quick mode.
	warm := o.scale(300, 600) * sim.Second
	measure := o.scale(30, 60) * sim.Second
	systems := []namedMgr{{"MM", newMM}, {"HeMem", newHeMem}, {"Nimble", newNimble}, {"NVM", newNVM}}
	sizes := []int64{16, 128, 700}

	s := NewSweep("tab3", o)
	type rowIdx struct {
		mops [3]int
		lat  int
	}
	var idx []rowIdx
	for _, sys := range systems {
		var ri rowIdx
		ri.lat = -1
		for j, ws := range sizes {
			ri.mops[j] = s.Cell(fmt.Sprintf("%s/ws=%dGB", sys.name, ws), func(CellInfo) any {
				m := machine.New(machine.DefaultConfig(), sys.mk())
				d := kvs.NewDriver(m, kvs.DriverConfig{
					WorkingSet: ws * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: o.seed(),
				})
				m.Warm()
				m.Run(warm)
				d.ResetScore()
				m.Run(measure)
				return d.Mops()
			})
		}
		// Latency at 30% load on the 700 GB working set (the paper
		// reports it for MM and HeMem).
		if sys.name == "MM" || sys.name == "HeMem" {
			ri.lat = s.Cell(sys.name+"/latency", func(CellInfo) any {
				m := machine.New(machine.DefaultConfig(), sys.mk())
				d := kvs.NewDriver(m, kvs.DriverConfig{
					WorkingSet: 700 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9,
					NetBase: kvs.NetBaseTAS, Seed: o.seed(),
				})
				m.Warm()
				m.Run(warm)
				d.SetTargetRate(0.3 * 8 / (10 * 1000))
				m.Run(10 * sim.Second)
				d.ResetScore()
				m.Run(measure)
				lat := d.Latency()
				var qs [4]float64
				for i, q := range []float64{0.5, 0.9, 0.99, 0.999} {
					qs[i] = lat.Quantile(q)
				}
				return qs
			})
		}
		idx = append(idx, ri)
	}
	res := s.Gather()

	tw := table(w)
	fmt.Fprintln(tw, "System\t16GB\t128GB\t700GB\t50p\t90p\t99p\t99.9p")
	for i, sys := range systems {
		fmt.Fprintf(tw, "%s", sys.name)
		for _, c := range idx[i].mops {
			fmt.Fprintf(tw, "\t%.2f", f64(res[c]))
		}
		if idx[i].lat >= 0 {
			for _, q := range res[idx[i].lat].([4]float64) {
				fmt.Fprintf(tw, "\t%.0f", q/1000)
			}
		} else {
			fmt.Fprint(tw, "\t-\t-\t-\t-")
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "Mops/s and µs; paper: MM 1.09/1.03/0.93 Mops, 35/44/53/63 µs; HeMem 1.14/1.11/1.06 Mops, 20/26/34/49 µs")
}

// runTab4: two FlexKVS instances, one priority (pinned in DRAM under
// HeMem), one regular, on the Linux TCP stack.
func runTab4(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(20, 60) * sim.Second

	type latPair struct {
		prio, reg *sim.Histogram
	}
	run := func(mk func() machine.Manager, pin bool) latPair {
		mgr := mk()
		m := machine.New(machine.DefaultConfig(), mgr)
		prioD := kvs.NewDriver(m, kvs.DriverConfig{
			Name: "priority", WorkingSet: 16 * sim.GB, ServerThreads: 4,
			NetBase: kvs.NetBaseLinux, Seed: o.seed(),
			TargetRate: 0.5 * 4 / (26 * 1000),
		})
		// The regular instance runs closed-loop with a uniform 500 GB
		// working set, as the paper drives it.
		regD := kvs.NewDriver(m, kvs.DriverConfig{
			Name: "regular", WorkingSet: 500 * sim.GB, ServerThreads: 8,
			NetBase: kvs.NetBaseLinux, Seed: o.seed() + 1,
		})
		if pin {
			h := mgr.(*core.HeMem)
			h.PinRegion(prioD.LogRegion())
			h.PinRegion(prioD.TableRegion())
		}
		m.Warm()
		m.Run(warm)
		prioD.ResetScore()
		regD.ResetScore()
		m.Run(measure)
		return latPair{prioD.Latency(), regD.Latency()}
	}

	s := NewSweep("tab4", o)
	s.Cell("HeMem", func(CellInfo) any { return run(newHeMem, true) })
	s.Cell("MM", func(CellInfo) any { return run(newMM, false) })
	res := s.Gather()

	tw := table(w)
	fmt.Fprintln(tw, "µs\tPriority 50p\t99p\t99.9p\tRegular 50p\t99p\t99.9p")
	prow := func(name string, lp latPair) {
		p, r := lp.prio, lp.reg
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n", name,
			p.Quantile(0.5)/1000, p.Quantile(0.99)/1000, p.Quantile(0.999)/1000,
			r.Quantile(0.5)/1000, r.Quantile(0.99)/1000, r.Quantile(0.999)/1000)
	}
	prow("HeMem", res[0].(latPair))
	prow("MM", res[1].(latPair))
	tw.Flush()
	fmt.Fprintln(w, "paper: priority p50 86 (HeMem) vs 127 (MM) µs — 47% better — with no tangible impact on the regular instance")
}

// bcRun executes the BC driver under mgr and returns it.
func bcRun(mgr machine.Manager, scale, iters int, visitScale float64, seed uint64) *gap.Driver {
	m := machine.New(machine.DefaultConfig(), mgr)
	d := gap.NewDriver(m, gap.DriverConfig{
		Scale: scale, Iterations: iters, EdgeVisitScale: visitScale, Seed: seed,
	})
	m.Warm()
	m.RunUntilDone(20000 * sim.Second)
	return d
}

// runFig14: per-iteration BC runtimes at 2^28 (fits DRAM).
func runFig14(w io.Writer, o Opts) {
	iters := int(o.scale(6, 15))
	visit := 0.05
	if o.Full {
		visit = 1
	}
	systems := []namedMgr{{"DRAM", newDRAM}, {"HeMem", newHeMem}, {"Nimble", newNimble}, {"MM", newMM}}
	printIterations(w, NewSweep("fig14", o), 28, iters, visit, systems,
		"seconds per iteration; paper: HeMem ~= DRAM, 93% faster than MM on average; Nimble between (beats MM by 32%)")
}

// runFig15: per-iteration BC runtimes at 2^29 (exceeds DRAM).
func runFig15(w io.Writer, o Opts) {
	iters := int(o.scale(6, 15))
	visit := 0.05
	if o.Full {
		visit = 1
	}
	systems := []namedMgr{{"HeMem", newHeMem}, {"HeMem-PT-Async", newPTAsync}, {"Nimble", newNimble}, {"MM", newMM}}
	printIterations(w, NewSweep("fig15", o), 29, iters, visit, systems,
		"seconds per iteration; paper: HeMem fastest (58% over MM); PT-Async slow early then equal; Nimble +36% vs HeMem")
}

func printIterations(w io.Writer, s *Sweep, scale, iters int, visit float64, systems []namedMgr, footer string) {
	o := s.o
	for _, sys := range systems {
		s.Cell(sys.name, func(CellInfo) any {
			return bcRun(sys.mk(), scale, iters, visit, o.seed()).IterationTimes()
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprint(tw, "iteration")
	for _, sys := range systems {
		fmt.Fprintf(tw, "\t%s", sys.name)
	}
	fmt.Fprintln(tw)
	for it := 0; it < iters; it++ {
		fmt.Fprintf(tw, "%d", it+1)
		for i := range systems {
			fmt.Fprintf(tw, "\t%.1f", float64(res[i].([]int64)[it])/1e9)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, footer)
}

// runFig16: NVM write bytes per BC iteration at 2^29.
func runFig16(w io.Writer, o Opts) {
	iters := int(o.scale(6, 15))
	visit := 0.05
	if o.Full {
		visit = 1
	}
	systems := []namedMgr{{"MM", newMM}, {"HeMem-PEBS", newHeMem}, {"HeMem-PT-Async", newPTAsync}}
	s := NewSweep("fig16", o)
	for _, sys := range systems {
		s.Cell(sys.name, func(CellInfo) any {
			return bcRun(sys.mk(), 29, iters, visit, o.seed()).IterationNVMWrites()
		})
	}
	res := s.Gather()
	tw := table(w)
	fmt.Fprint(tw, "iteration")
	for _, sys := range systems {
		fmt.Fprintf(tw, "\t%s", sys.name)
	}
	fmt.Fprintln(tw)
	for it := 0; it < iters; it++ {
		fmt.Fprintf(tw, "%d", it+1)
		for i := range systems {
			fmt.Fprintf(tw, "\t%.2f", res[i].([]float64)[it]/float64(sim.GB))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w, "GB written to NVM per iteration (log scale in the paper); paper: MM constant and ~10x HeMem; PT-Async high early, converging to PEBS")
}
