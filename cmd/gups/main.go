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

func main() {
	var (
		mgrName = flag.String("mgr", "hemem", "manager: hemem, mm, nimble, dram, nvm, pt-async, pt-sync")
		ws      = flag.Int64("ws", 512, "working set (GB)")
		hot     = flag.Int64("hot", 16, "hot set (GB); 0 = uniform")
		threads = flag.Int("threads", 16, "update threads")
		warm    = flag.Int64("warm", 60, "warm-up (simulated seconds)")
		dur     = flag.Int64("dur", 30, "measurement (simulated seconds)")
		shift   = flag.Int64("shift", 0, "shift this many GB of hot set after warm-up")
		seed    = flag.Uint64("seed", 17, "layout seed")
		telem   = flag.String("telemetry", "", "write machine telemetry CSV to this file")
	)
	flag.Parse()

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
		fmt.Fprintf(os.Stderr, "unknown manager %q\n", *mgrName)
		os.Exit(1)
	}

	mcfg := machine.DefaultConfig()
	gcfg := gups.Config{Threads: *threads, WorkingSet: *ws * sim.GB, HotSet: *hot * sim.GB, Seed: *seed}
	if err := gcfg.Validate(mcfg.PageSize); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m := machine.New(mcfg, mgr)
	g := gups.New(m, gcfg)
	fmt.Printf("%s on %s\n", g, m)
	m.Warm()
	if *telem != "" {
		m.EnableTelemetry(0)
	}
	m.Run(*warm * sim.Second)
	if *shift > 0 {
		g.ShiftHotSet(*shift*sim.GB, *seed+1)
		fmt.Printf("shifted %d GB of the hot set\n", *shift)
	}
	g.ResetScore()
	m.Run(*dur * sim.Second)

	fmt.Printf("GUPS: %.4f\n", g.Score())
	if hp := g.HotPages(); hp != nil {
		fmt.Printf("hot set in DRAM: %.1f%%\n", hp.Frac(vm.TierDRAM)*100)
	}
	fmt.Printf("NVM writes: %.2f GB, migrations: %d pages (%.2f GB)\n",
		m.NVM.Wear().WriteBytes/float64(sim.GB),
		m.Migrator.Stats().Pages, m.Migrator.Stats().Bytes/float64(sim.GB))

	if *telem != "" {
		f, err := os.Create(*telem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := m.Telemetry().WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry written to %s\n", *telem)
	}
}
