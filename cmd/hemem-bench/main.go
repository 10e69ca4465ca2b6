// Command hemem-bench regenerates the tables and figures of the HeMem
// paper's evaluation (§5) on the simulated testbed.
//
// Usage:
//
//	hemem-bench -list              list experiments, trackers, and
//	                               policies
//	hemem-bench -exp trackers -tracker damon -policy heat
//	                               run one cell of the tracker × policy
//	                               cross-product
//	hemem-bench -exp fig5          run one experiment (quick parameters)
//	hemem-bench -exp all -full     run everything at paper-scale lengths
//	hemem-bench -exp all -jobs 8   fan experiment cells out over 8 workers
//	                               (output is byte-identical to -jobs 1)
//	hemem-bench -exp all -v        narrate per-cell completion to stderr
//	hemem-bench -exp fleet -tenants 24 -qos gold
//	                               size the fleet's per-machine tenant
//	                               population and pin its QoS class mix
//	hemem-bench -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                               write pprof profiles of the run
//
// Simulator speed is measured by the benchmark module (benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/tieredmem/hemem/internal/bench"
	"github.com/tieredmem/hemem/internal/core"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all')")
		full       = flag.Bool("full", false, "paper-scale run lengths")
		seed       = flag.Uint64("seed", 0, "workload layout seed (0 = default)")
		jobs       = flag.Int("jobs", 0, "sweep worker pool size (0 = GOMAXPROCS); any value produces identical output")
		verbose    = flag.Bool("v", false, "narrate per-cell completion to stderr")
		list       = flag.Bool("list", false, "list experiments, trackers, and policies")
		tracker    = flag.String("tracker", "", "restrict the trackers experiment to one tracker (see -list)")
		policy     = flag.String("policy", "", "restrict the trackers experiment to one policy (see -list)")
		tenants    = flag.Int("tenants", 0, "fleet experiment: tenants per machine (0 = scale default)")
		qos        = flag.String("qos", "", "fleet experiment: pin every tenant to one QoS class (gold, silver, besteffort)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	opts := bench.Opts{
		Full: *full, Seed: *seed, Jobs: *jobs, Tracker: *tracker, Policy: *policy,
		Tenants: *tenants, QoS: *qos,
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hemem-bench:", err)
		os.Exit(2)
	}
	if *verbose {
		opts.Progress = os.Stderr
	}

	if *list || *exp == "" {
		exps := bench.All()
		width := 0
		for _, e := range exps {
			if len(e.ID) > width {
				width = len(e.ID)
			}
		}
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-*s  %s\n", width, e.ID, e.Title)
		}
		fmt.Printf("\ntrackers (-tracker):         %s\n", strings.Join(core.TrackerNames(), ", "))
		fmt.Printf("policies (-policy):          %s\n", strings.Join(core.PolicyNames(), ", "))
		if *exp == "" {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	run := func(e bench.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		e.Run(os.Stdout, opts)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, err := bench.ByID(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run(e)
}
