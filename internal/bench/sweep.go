package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel sweep engine. An experiment's sweep (working
// set sizes × managers, thread counts, sample periods, ...) decomposes
// into independent *cells* — one seeded machine build + run + measurement
// each — declared up front via Sweep.Cell. Gather fans the cells out over
// a worker pool and returns their results in declaration order, so tables
// and series rendered from them are byte-identical to a serial run
// regardless of worker count: every cell's randomness derives from
// (experiment id, cell index, base seed), never from execution order, and
// nothing in the simulator shares mutable state across machines.

// CellInfo identifies one cell of a sweep.
type CellInfo struct {
	// Exp is the owning experiment's id and Index the cell's position in
	// declaration order.
	Exp   string
	Index int
	// Label names the cell for progress narration, e.g. "ws=64GB/HeMem".
	Label string
	// Seed is the cell's private random stream, derived deterministically
	// from (Exp, Index, Opts.Seed). Cells that need cell-local randomness
	// beyond their declared workload seeds must draw from it (or split
	// it), never from a source influenced by scheduling.
	Seed uint64
}

type sweepCell struct {
	info CellInfo
	run  func(CellInfo) any
}

// Sweep collects an experiment's cells and runs them on a worker pool.
type Sweep struct {
	exp   string
	o     Opts
	cells []sweepCell
	done  atomic.Int64
	mu    sync.Mutex // serializes progress narration
}

// NewSweep starts an empty sweep for the experiment with the given id.
func NewSweep(exp string, o Opts) *Sweep {
	return &Sweep{exp: exp, o: o}
}

// mix folds v into an FNV-1a style accumulator started at digestSeed.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

const digestSeed = 14695981039346656037

// cellSeed derives a cell's seed from its declaration-time identity.
func cellSeed(exp string, index int, base uint64) uint64 {
	h := uint64(digestSeed)
	for i := 0; i < len(exp); i++ {
		h = mix(h, uint64(exp[i]))
	}
	h = mix(h, uint64(index))
	h = mix(h, base)
	return h
}

// Cell declares the next cell and returns its index into Gather's result
// slice. run executes on an arbitrary worker; it must touch only state it
// builds itself.
func (s *Sweep) Cell(label string, run func(c CellInfo) any) int {
	idx := len(s.cells)
	s.cells = append(s.cells, sweepCell{
		info: CellInfo{
			Exp:   s.exp,
			Index: idx,
			Label: label,
			Seed:  cellSeed(s.exp, idx, s.o.seed()),
		},
		run: run,
	})
	return idx
}

// Len returns the number of declared cells.
func (s *Sweep) Len() int { return len(s.cells) }

// Gather executes every declared cell — serially when the resolved worker
// count is 1, otherwise across the pool — and returns results indexed by
// declaration order.
func (s *Sweep) Gather() []any {
	results := make([]any, len(s.cells))
	workers := s.o.jobs()
	if workers > len(s.cells) {
		workers = len(s.cells)
	}
	if workers <= 1 {
		for i := range s.cells {
			results[i] = s.runCell(i)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.cells) {
					return
				}
				results[i] = s.runCell(i)
			}
		}()
	}
	wg.Wait()
	return results
}

func (s *Sweep) runCell(i int) any {
	c := s.cells[i]
	start := time.Now()
	res := c.run(c.info)
	done := s.done.Add(1)
	if s.o.Progress != nil {
		s.mu.Lock()
		fmt.Fprintf(s.o.Progress, "cell %d/%d %s/%s done in %.1fs\n",
			done, len(s.cells), s.exp, c.info.Label, time.Since(start).Seconds())
		s.mu.Unlock()
	}
	return res
}

// f64 reads back a float64 cell result.
func f64(v any) float64 { return v.(float64) }
