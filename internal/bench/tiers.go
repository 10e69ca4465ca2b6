package bench

import (
	"fmt"
	"io"
	"strings"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// tierChain describes one machine configuration cell: a machine tier
// table, fastest first.
type tierChain struct {
	name  string
	tiers []machine.TierDesc
}

// runTiers exercises the tier descriptor table end to end: the same HeMem
// policy code drives a two-tier DRAM+NVM machine and a three-tier
// DRAM+CXL+NVM machine (calibrated CXL-like device between them), running
// GUPS and FlexKVS against a hot set larger than DRAM. The interesting
// observables are where the working set settles (per-tier resident bytes)
// and which migration-graph edges fire: on the three-tier chain demotions
// must flow DRAM→CXL→NVM and promotions back up each link, with the
// middle tier catching the DRAM overflow that the baseline pushes all the
// way to NVM.
func runTiers(w io.Writer, o Opts) {
	warm := o.scale(60, 240) * sim.Second
	measure := o.scale(20, 60) * sim.Second

	chains := []tierChain{
		// Both chains get the same 16 GB of DRAM.
		{name: "DRAM+NVM", tiers: machine.ClassicTiers(16*sim.GB, 0, 0)},
		{name: "DRAM+CXL+NVM", tiers: []machine.TierDesc{
			{ID: vm.TierDRAM, Capacity: 16 * sim.GB},
			{ID: vm.TierCXL, Capacity: 32 * sim.GB},
			{ID: vm.TierNVM, Capacity: 768 * sim.GB, UEVictim: true},
			{ID: vm.TierDisk, Capacity: 4 * sim.TB, Swap: true},
		}},
	}
	mkMachine := func(c tierChain) (*machine.Machine, *core.HeMem) {
		mcfg := machine.DefaultConfig()
		mcfg.Tiers = c.tiers
		h := core.New(core.DefaultConfig())
		return machine.New(mcfg, h), h
	}

	type res struct {
		score    float64
		resident map[vm.Tier]int64
		edges    string
	}
	finish := func(m *machine.Machine, score float64) res {
		r := res{score: score, resident: map[vm.Tier]int64{}}
		for _, reg := range m.AS.Regions {
			for _, td := range m.TierTable() {
				r.resident[td.ID] += reg.Bytes(td.ID)
			}
		}
		// Adjacent migration-graph edges, demotions then promotions per
		// link, in chain order.
		var chain []vm.Tier
		for _, td := range m.TierTable() {
			if !td.Swap {
				chain = append(chain, td.ID)
			}
		}
		var parts []string
		for i := 0; i+1 < len(chain); i++ {
			lo, hi := chain[i], chain[i+1]
			parts = append(parts,
				fmt.Sprintf("%s>%s:%d", strings.ToLower(lo.String()), strings.ToLower(hi.String()), m.Migrator.Moved(lo, hi)),
				fmt.Sprintf("%s>%s:%d", strings.ToLower(hi.String()), strings.ToLower(lo.String()), m.Migrator.Moved(hi, lo)))
		}
		r.edges = strings.Join(parts, " ")
		return r
	}

	s := NewSweep("tiers", o)
	for _, c := range chains {
		s.Cell("gups/"+c.name, func(CellInfo) any {
			m, _ := mkMachine(c)
			g := gups.New(m, gups.Config{
				Threads: 16, WorkingSet: 96 * sim.GB, HotSet: 24 * sim.GB, Seed: o.seed(),
			})
			m.Warm()
			m.Run(warm)
			g.ResetScore()
			m.Run(measure)
			return finish(m, g.Score())
		})
	}
	for _, c := range chains {
		s.Cell("flexkvs/"+c.name, func(CellInfo) any {
			m, _ := mkMachine(c)
			d := kvs.NewDriver(m, kvs.DriverConfig{
				WorkingSet: 96 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: o.seed(),
			})
			m.Warm()
			m.Run(warm)
			d.ResetScore()
			m.Run(measure)
			return finish(m, d.Mops())
		})
	}
	out := s.Gather()

	tw := table(w)
	fmt.Fprintln(tw, "workload\ttiers\tscore\tDRAM(GB)\tCXL(GB)\tNVM(GB)\tmigrations(pages)")
	names := []string{"GUPS", "GUPS", "FlexKVS", "FlexKVS"}
	for i, v := range out {
		r := v.(res)
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\t%d\t%d\t%s\n",
			names[i], chains[i%2].name, r.score,
			r.resident[vm.TierDRAM]/sim.GB, r.resident[vm.TierCXL]/sim.GB, r.resident[vm.TierNVM]/sim.GB,
			r.edges)
	}
	tw.Flush()
	fmt.Fprintln(w, "96 GB working set, 16 GB DRAM; the three-tier chain adds a 32 GB CXL-like device between DRAM and NVM")
}
