package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// runExtSwap exercises the §3.4 swap tier: a working set larger than
// DRAM+NVM combined, with HeMem swapping the coldest pages to a block
// device and swapping pages back in as traffic reaches them. The paper
// discusses this as future-capable ("swapping of tiered memory is
// possible") without evaluating it; this experiment is an extension.
func runExtSwap(w io.Writer, o Opts) {
	warm := o.scale(180, 600) * sim.Second
	measure := o.scale(30, 120) * sim.Second
	sizes := []int64{8, 16, 32}

	// managedRes carries the swap-tier observables alongside the score.
	type managedRes struct {
		score    float64
		hotFrac  float64
		swapIns  int64
		swapOuts int64
		diskGB   int64
	}
	run := func(hotGB int64, migrate bool) (float64, *core.HeMem, *gups.GUPS, *machine.Machine) {
		cfg := core.DefaultConfig()
		cfg.EnableSwap = true
		cfg.NoMigration = !migrate
		h := core.New(cfg)
		m := machine.New(machine.DefaultConfig(), h)
		g := gups.New(m, gups.Config{
			Threads: 16, WorkingSet: 1100 * sim.GB, HotSet: hotGB * sim.GB, Seed: o.seed(),
		})
		m.Warm()
		m.Run(warm)
		g.ResetScore()
		m.Run(measure)
		return g.Score(), h, g, m
	}

	s := NewSweep("ext-swap", o)
	for _, hotGB := range sizes {
		s.Cell(fmt.Sprintf("hot=%dGB/managed", hotGB), func(CellInfo) any {
			score, h, g, m := run(hotGB, true)
			diskGB := int64(m.AS.Count(vm.TierDisk)) * m.AS.PageSize
			st := h.Stats()
			return managedRes{
				score:    score,
				hotFrac:  g.HotPages().Frac(vm.TierDRAM),
				swapIns:  st.SwapIns,
				swapOuts: st.SwapOuts,
				diskGB:   diskGB / sim.GB,
			}
		})
		s.Cell(fmt.Sprintf("hot=%dGB/frozen", hotGB), func(CellInfo) any {
			score, _, _, _ := run(hotGB, false)
			return score
		})
	}
	res := s.Gather()

	tw := table(w)
	fmt.Fprintln(tw, "hot(GB)\tGUPS(managed)\tGUPS(frozen)\thot-in-DRAM\tswap-ins\tswap-outs\tdisk-resident(GB)")
	for i, hotGB := range sizes {
		mr := res[2*i].(managedRes)
		frozen := f64(res[2*i+1])
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.2f\t%d\t%d\t%d\n",
			hotGB, mr.score, frozen, mr.hotFrac, mr.swapIns, mr.swapOuts, mr.diskGB)
	}
	tw.Flush()
	fmt.Fprintln(w, "1100 GB working set on 192 GB DRAM + 768 GB NVM + disk; managed swapping must beat a frozen placement")
}
