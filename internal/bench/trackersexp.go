package bench

import (
	"fmt"
	"io"
	"slices"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// trackerCells and policyCells enumerate the cross-product of core's
// fixed tracker and policy tables in sorted name order, optionally
// filtered by the -tracker and -policy flags (Opts.Validate rejects an
// unknown name; filterNames drops it to an empty grid).
func trackerCells(o Opts) []string { return filterNames(core.TrackerNames(), o.Tracker) }
func policyCells(o Opts) []string  { return filterNames(core.PolicyNames(), o.Policy) }

func filterNames(names []string, want string) []string {
	if want == "" {
		return names
	}
	if slices.Contains(names, want) {
		return []string{want}
	}
	return nil
}

// runTrackers extends the paper's PEBS-vs-PT-scan dichotomy (Figs 8/9/
// 15/16) to the full tracker × policy cross-product of the pluggable
// tables: every access-observation mechanism drives every
// classification policy over GUPS and FlexKVS, on the classic testbed
// with DRAM shrunk below the hot set so tracking fidelity decides what
// gets promoted. Reported per cell: throughput score, hot-set
// classification accuracy (fraction of the workload's ground-truth hot
// pages resident in the fastest tier at the end of the measured window),
// and total migration traffic — together they separate "fast because it
// found the hot set" from "fast because it stopped migrating".
func runTrackers(w io.Writer, o Opts) {
	warm := o.scale(10, 120) * sim.Second
	measure := o.scale(5, 30) * sim.Second

	trackers := trackerCells(o)
	policies := policyCells(o)

	mkMachine := func(tracker, policy string) (*machine.Machine, *core.HeMem) {
		mcfg := machine.DefaultConfig()
		mcfg.Tiers = machine.ClassicTiers(6*sim.GB, 0, 0)
		h := core.New(core.Config{Tracker: tracker, Policy: policy})
		return machine.New(mcfg, h), h
	}

	type res struct {
		score    float64
		accuracy float64
		migGB    float64
	}
	finish := func(m *machine.Machine, score float64, hotSet *vm.PageSet) res {
		r := res{score: score, migGB: m.Migrator.Stats().Bytes / float64(sim.GB)}
		if hotSet != nil && hotSet.Len() > 0 {
			r.accuracy = hotSet.Frac(m.FastestTier())
		}
		return r
	}

	type cellID struct{ workload, tracker, policy string }
	var ids []cellID
	s := NewSweep("trackers", o)
	for _, tr := range trackers {
		for _, po := range policies {
			tr, po := tr, po
			ids = append(ids, cellID{"GUPS", tr, po})
			s.Cell("gups/"+tr+"+"+po, func(CellInfo) any {
				m, _ := mkMachine(tr, po)
				g := gups.New(m, gups.Config{
					Threads: 16, WorkingSet: 32 * sim.GB, HotSet: 8 * sim.GB, Seed: o.seed(),
				})
				m.Warm()
				m.Run(warm)
				g.ResetScore()
				m.Run(measure)
				return finish(m, g.Score(), g.HotPages())
			})
		}
	}
	for _, tr := range trackers {
		for _, po := range policies {
			tr, po := tr, po
			ids = append(ids, cellID{"FlexKVS", tr, po})
			s.Cell("flexkvs/"+tr+"+"+po, func(CellInfo) any {
				m, _ := mkMachine(tr, po)
				d := kvs.NewDriver(m, kvs.DriverConfig{
					WorkingSet: 32 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: o.seed(),
				})
				m.Warm()
				m.Run(warm)
				d.ResetScore()
				m.Run(measure)
				return finish(m, d.Mops(), d.HotItemPages())
			})
		}
	}
	out := s.Gather()

	tw := table(w)
	fmt.Fprintln(tw, "workload\ttracker\tpolicy\tscore\thot-in-fast\tmigrated(GB)")
	for i, v := range out {
		r := v.(res)
		id := ids[i]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.3f\t%.1f\n",
			id.workload, id.tracker, id.policy, r.score, r.accuracy, r.migGB)
	}
	tw.Flush()
	fmt.Fprintln(w, "32 GB working set, 8 GB hot set (GUPS) / 20% hot keys (FlexKVS), 6 GB DRAM;")
	fmt.Fprintln(w, "hot-in-fast = fraction of ground-truth hot pages resident in the fastest tier after the measured window")
}
