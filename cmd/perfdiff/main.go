// Command perfdiff compares two performance-harness reports (the JSON
// written by `hemem-bench -perf`, see internal/bench/perf.go) and flags
// per-case regressions. It is a soft gate: regressions and digest
// mismatches are reported as warnings (GitHub-annotation formatted when
// running in CI) and the exit status is always 0, because shared CI
// runners are too noisy for a hard wall-clock threshold.
//
// Usage:
//
//	perfdiff -baseline BENCH_pr10.json -current bench-ci.json [-threshold 0.20]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/tieredmem/hemem/internal/bench"
)

func load(path string) (bench.PerfReport, error) {
	var rep bench.PerfReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline report (JSON)")
	current := flag.String("current", "", "freshly measured report (JSON)")
	threshold := flag.Float64("threshold", 0.20, "warn when sim_ns_per_sec drops by more than this fraction")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "perfdiff: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfdiff:", err)
		os.Exit(2)
	}

	warn := func(format string, args ...any) {
		// ::warning:: renders as an annotation on GitHub Actions and as
		// a plain line everywhere else.
		fmt.Printf("::warning ::"+format+"\n", args...)
	}

	baseCases := map[string]bench.PerfResult{}
	for _, c := range base.Cases {
		baseCases[c.ID] = c
	}
	curCases := map[string]bool{}
	for _, c := range cur.Cases {
		curCases[c.ID] = true
	}
	// A dropped case would otherwise vanish from the comparison silently.
	for _, b := range base.Cases {
		if !curCases[b.ID] {
			warn("%s: baseline case missing from current report", b.ID)
		}
	}
	for _, c := range cur.Cases {
		b, ok := baseCases[c.ID]
		if !ok {
			fmt.Printf("%-8s new case (no baseline)\n", c.ID)
			continue
		}
		ratio := c.SimNSPerSec / b.SimNSPerSec
		fmt.Printf("%-8s sim-ns/s %.3g -> %.3g (%.2fx)  allocs %d -> %d\n",
			c.ID, b.SimNSPerSec, c.SimNSPerSec, ratio, b.Allocs, c.Allocs)
		if c.Digest != b.Digest {
			warn("%s: digest changed %s -> %s (simulated results differ from baseline)", c.ID, b.Digest, c.Digest)
		}
		if !c.Deterministic {
			warn("%s: run was not deterministic", c.ID)
		}
		if ratio < 1-*threshold {
			warn("%s: sim_ns_per_sec regressed %.0f%% vs baseline (%.3g -> %.3g)",
				c.ID, (1-ratio)*100, b.SimNSPerSec, c.SimNSPerSec)
		}
		// Resident metadata is deterministic accounting, not wall clock,
		// so growth past the threshold is a real sparse-bookkeeping
		// regression rather than runner noise.
		if b.ResidentBytes > 0 && c.ResidentBytes > 0 {
			if g := float64(c.ResidentBytes) / float64(b.ResidentBytes); g > 1+*threshold {
				warn("%s: resident_bytes grew %.0f%% vs baseline (%d -> %d)",
					c.ID, (g-1)*100, b.ResidentBytes, c.ResidentBytes)
			}
		}
	}

	// The sweep comparison is legitimately skipped on a 1-CPU host — but a
	// multi-CPU host that skipped or omitted it measured less than it
	// should have: the speedup and byte-identity evidence is missing from
	// the report.
	if cur.NumCPU > 1 {
		if s := cur.Sweep; s == nil {
			warn("sweep comparison missing from report on a %d-CPU host", cur.NumCPU)
		} else if s.IdenticalOutput == nil {
			warn("sweep parallel leg skipped on a %d-CPU host (%s)", cur.NumCPU, s.Note)
		}
	}
}
