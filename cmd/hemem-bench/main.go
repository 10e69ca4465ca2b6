// Command hemem-bench regenerates the tables and figures of the HeMem
// paper's evaluation (§5) on the simulated testbed.
//
// Usage:
//
//	hemem-bench -list              list experiments, registered trackers,
//	                               policies, and heat forecasters
//	hemem-bench -exp trackers -tracker damon -policy heat
//	                               run one cell of the tracker × policy
//	                               cross-product
//	hemem-bench -exp fig5          run one experiment (quick parameters)
//	hemem-bench -exp all -full     run everything at paper-scale lengths
//	hemem-bench -exp all -jobs 8   fan experiment cells out over 8 workers
//	                               (output is byte-identical to -jobs 1)
//	hemem-bench -exp all -v        narrate per-cell completion to stderr
//	hemem-bench -exp chaos -audit  run with the runtime invariant
//	                               auditor checking conservation
//	                               invariants every quantum
//	hemem-bench -exp tbscale -adaptive
//	                               run on the event-driven adaptive-
//	                               quantum loop (output is byte-identical
//	                               to the fixed loop)
//	hemem-bench -exp tiers -quantum 500us
//	                               override the fixed step quantum
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
	"github.com/tieredmem/hemem/internal/machine"
)

// flagSet reports whether the named flag was given explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all')")
		full       = flag.Bool("full", false, "paper-scale run lengths")
		seed       = flag.Uint64("seed", 0, "workload layout seed (0 = default)")
		jobs       = flag.Int("jobs", 0, "sweep worker pool size (0 = GOMAXPROCS); any value produces identical output")
		verbose    = flag.Bool("v", false, "narrate per-cell completion to stderr")
		list       = flag.Bool("list", false, "list experiments, trackers, policies, and heat forecasters")
		tracker    = flag.String("tracker", "", "restrict the trackers experiment to one registered tracker")
		policy     = flag.String("policy", "", "restrict the trackers experiment to one registered policy")
		audit      = flag.Bool("audit", false, "run the invariant auditor every quantum on every machine (panics with a diagnostic dump on a violation)")
		quantum    = flag.Duration("quantum", 0, "override the machine step quantum (e.g. 500us, 2ms); 0 keeps the default 1ms")
		adaptive   = flag.Bool("adaptive", false, "run machines on the event-driven adaptive-quantum loop; output is identical to the fixed loop")
		tenants    = flag.Int("tenants", 0, "fleet experiment: tenants per machine (0 = scale default)")
		qos        = flag.String("qos", "", "fleet experiment: pin every tenant to one QoS class (gold, silver, besteffort)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *audit {
		machine.SetAuditAll(true)
	}

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

	if flagSet("quantum") && *quantum <= 0 {
		fmt.Fprintln(os.Stderr, "hemem-bench: -quantum must be a positive duration")
		os.Exit(2)
	}
	if *qos != "" {
		if _, ok := machine.ParseQoS(*qos); !ok {
			fmt.Fprintf(os.Stderr, "hemem-bench: unknown -qos class %q (valid: %s)\n", *qos, strings.Join(machine.QoSNames(), ", "))
			os.Exit(2)
		}
	}
	if *tenants < 0 {
		fmt.Fprintln(os.Stderr, "hemem-bench: -tenants must be non-negative")
		os.Exit(2)
	}
	opts := bench.Opts{
		Full: *full, Seed: *seed, Jobs: *jobs, Tracker: *tracker, Policy: *policy,
		Quantum: quantum.Nanoseconds(), Adaptive: *adaptive,
		Tenants: *tenants, QoS: *qos,
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
		fmt.Printf("heat forecasters (config):   %s\n", strings.Join(core.HeatForecasterNames(), ", "))
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
