package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// chaosMachine builds the three-tier DRAM+CXL+NVM testbed the chaos
// experiments run on, seeded from o, managed by HeMem with cfg and
// audited every quantum: the CXL tier is the one taken offline, sized so
// it holds a meaningful slice of the working set and drains in well
// under a scripted outage.
func chaosMachine(o Opts, cfg core.Config, faults fault.Config) (*machine.Machine, *core.HeMem) {
	mcfg := machine.DefaultConfig()
	mcfg.Audit = true
	mcfg.Seed = o.seed()
	mcfg.Faults = faults
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 8 * sim.GB},
		{ID: vm.TierCXL, Capacity: 8 * sim.GB},
		{ID: vm.TierNVM, Capacity: 256 * sim.GB, UEVictim: true},
		{ID: vm.TierDisk, Capacity: 1 * sim.TB, Swap: true},
	}
	h := core.New(cfg)
	return machine.New(mcfg, h), h
}

// runChaos scripts one tier outage against a running workload: GUPS
// settles on the DRAM+CXL+NVM chain, the CXL expander drops mid-run,
// HeMem evacuates every resident page under admission control, and the
// link comes back. The canonical output reports throughput in the
// normal, degraded, and recovered phases, the evacuation (page count
// and measured MTTR), and the replayable episode log — with the
// invariant auditor running every quantum throughout.
func runChaos(w io.Writer, o Opts) {
	warm := o.scale(30, 120) * sim.Second
	phase := o.scale(10, 30) * sim.Second

	m, h := chaosMachine(o, core.DefaultConfig(), fault.Config{})
	g := gups.New(m, gups.Config{
		Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 6 * sim.GB, Seed: o.seed(),
	})
	m.Warm()
	m.Run(warm)

	measure := func(d int64) float64 {
		g.ResetScore()
		m.Run(d)
		return g.Score()
	}

	cxlBytes := func() int64 { return int64(m.AS.Count(vm.TierCXL)) * m.AS.PageSize }
	cxlBefore := cxlBytes()
	normal := measure(phase)
	if !m.OfflineTier(vm.TierCXL) {
		panic("bench: CXL offline refused")
	}
	degraded := measure(phase)
	cxlDuring := cxlBytes()
	if !m.OnlineTier(vm.TierCXL) {
		panic("bench: CXL online refused")
	}
	recovered := measure(phase)

	fs := *m.FaultCounters()
	st := h.Stats()
	mttr := int64(0)
	if fs.TierEvacuations > 0 {
		mttr = fs.TierEvacNsTotal / fs.TierEvacuations
	}

	tw := table(w)
	fmt.Fprintln(tw, "phase\tGUPS\tvs normal")
	fmt.Fprintf(tw, "normal\t%.4f\t%.0f%%\n", normal, 100.0)
	fmt.Fprintf(tw, "cxl offline\t%.4f\t%.0f%%\n", degraded, 100*degraded/normal)
	fmt.Fprintf(tw, "recovered\t%.4f\t%.0f%%\n", recovered, 100*recovered/normal)
	tw.Flush()
	fmt.Fprintf(w, "evacuation: %d GB resident at offline, %d pages moved off, %d GB left behind, MTTR %.3fs\n",
		cxlBefore/sim.GB, fs.TierEvacuatedPages, cxlDuring/sim.GB, float64(mttr)/float64(sim.Second))
	fmt.Fprintf(w, "manager: %d evacuations, %d offline / %d online events handled\n",
		st.Evacuations, st.TierOfflines, st.TierOnlines)
	fmt.Fprintln(w, "episodes:")
	fault.WriteEpisodes(w, m.Episodes())
	fmt.Fprintln(w, "auditor: every quantum, zero violations")
	fmt.Fprintln(w, "32 GB working set on 8 GB DRAM + 8 GB CXL + NVM; the CXL expander goes away for one phase")
}
