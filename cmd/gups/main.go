// Command gups runs the GUPS microbenchmark (§5.1) on the simulated tiered
// machine under a selectable memory manager.
//
// Example:
//
//	gups -mgr hemem -ws 512 -hot 16 -threads 16 -dur 60
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs GUPS and reports to stdout, and returns the exit
// code: 1 for an unknown manager or an unwritable telemetry file, 2 for
// a bad flag or a configuration that gups.Config.Validate rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gups", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mgrName = fs.String("mgr", "hemem", "manager: hemem, mm, nimble, dram, nvm, pt-async, pt-sync")
		ws      = fs.Int64("ws", 512, "working set (GB)")
		hot     = fs.Int64("hot", 16, "hot set (GB); 0 = uniform")
		threads = fs.Int("threads", 16, "update threads")
		warm    = fs.Int64("warm", 60, "warm-up (simulated seconds)")
		dur     = fs.Int64("dur", 30, "measurement (simulated seconds)")
		shift   = fs.Int64("shift", 0, "shift this many GB of hot set after warm-up")
		seed    = fs.Uint64("seed", 17, "layout seed")
		telem   = fs.String("telemetry", "", "write machine telemetry CSV to this file")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	// Every sized flag is scaled to bytes or sim-ns; a value whose
	// product leaves int64 is refused rather than wrapped.
	for _, f := range []struct {
		name string
		v    *int64
		unit int64
	}{{"ws", ws, sim.GB}, {"hot", hot, sim.GB}, {"shift", shift, sim.GB}, {"warm", warm, sim.Second}, {"dur", dur, sim.Second}} {
		if *f.v > math.MaxInt64/f.unit || *f.v < math.MinInt64/f.unit {
			fmt.Fprintf(stderr, "gups: -%s %d overflows a 64-bit count\n", f.name, *f.v)
			return 2
		}
		*f.v *= f.unit
	}

	var mgr machine.Manager
	switch *mgrName {
	case "hemem":
		mgr = core.New(core.DefaultConfig())
	case "mm":
		mgr = memmode.New()
	case "nimble":
		mgr = ptscan.Nimble()
	case "dram":
		mgr = xmem.DRAMFirst()
	case "nvm":
		mgr = xmem.NVMOnly()
	case "pt-async":
		mgr = ptscan.HeMemPTAsync()
	case "pt-sync":
		mgr = ptscan.HeMemPTSync()
	default:
		fmt.Fprintf(stderr, "unknown manager %q\n", *mgrName)
		return 1
	}

	mcfg := machine.DefaultConfig()
	gcfg := gups.Config{Threads: *threads, WorkingSet: *ws, HotSet: *hot, Seed: *seed}
	if err := gcfg.Validate(mcfg.PageSize); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	m := machine.New(mcfg, mgr)
	g := gups.New(m, gcfg)
	fmt.Fprintf(stdout, "%s on %s\n", g, m)
	m.Warm()
	if *telem != "" {
		m.EnableTelemetry(0)
	}
	m.Run(*warm)
	if *shift > 0 {
		g.ShiftHotSet(*shift, *seed+1)
		fmt.Fprintf(stdout, "shifted %d GB of the hot set\n", *shift/sim.GB)
	}
	g.ResetScore()
	m.Run(*dur)

	fmt.Fprintf(stdout, "GUPS: %.4f\n", g.Score())
	if hp := g.HotPages(); hp != nil {
		fmt.Fprintf(stdout, "hot set in DRAM: %.1f%%\n", hp.Frac(vm.TierDRAM)*100)
	}
	fmt.Fprintf(stdout, "NVM writes: %.2f GB, migrations: %d pages (%.2f GB)\n",
		m.NVM.Wear().WriteBytes/float64(sim.GB),
		m.Migrator.Stats().Pages, m.Migrator.Stats().Bytes/float64(sim.GB))

	if *telem != "" {
		f, err := os.Create(*telem)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := m.Telemetry().WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry written to %s\n", *telem)
	}
	return 0
}
