// Package nimble models the Nimble tiered memory baseline (Yan et al.,
// ASPLOS '19) as the paper deploys it (§2.4, §5): NVM exposed as a far
// NUMA node, with a single kernel thread that sequentially scans page
// tables for accessed/dirty bits and then migrates pages, plus four
// dedicated migration copy threads. Because scanning and migration share
// one thread, long migrations delay statistics gathering, and long scans
// over large memories overestimate the hot set — the two effects behind
// Nimble's losses in Figures 5, 6, 14 and 15.
package nimble

import (
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
)

// Options mirrors the paper's Nimble configuration.
func Options() ptscan.Options {
	return ptscan.Options{
		Name:  "Nimble",
		Async: false, // one kernel thread: scan, then migrate
		// Four migration copy threads maximize copy throughput (§5).
		UseDMA: false,
		// Kernel NUMA migration is not rate-capped like HeMem; bound it
		// by the copy threads' own throughput.
		MigRateCap: sim.GBps(100),
		// The kernel thread itself.
		BGThreads:        1,
		MigrationEnabled: true,
		// Nimble is blind to read/write asymmetry (Table 2).
		WritePriority: false,
	}
}

// New returns a Nimble manager.
func New() *ptscan.Manager { return ptscan.New(Options()) }
