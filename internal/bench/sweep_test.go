package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The engine runs cells on workers and returns results in declaration
// order, whatever the worker count.
func TestSweepGatherOrder(t *testing.T) {
	for _, jobs := range []int{1, 3, 16} {
		s := NewSweep("unit", Opts{Jobs: jobs})
		const n = 40
		for i := 0; i < n; i++ {
			s.Cell(fmt.Sprintf("cell%d", i), func(c CellInfo) any { return c.Index * c.Index })
		}
		if s.Len() != n {
			t.Fatalf("jobs=%d: Len=%d, want %d", jobs, s.Len(), n)
		}
		res := s.Gather()
		for i, v := range res {
			if v.(int) != i*i {
				t.Fatalf("jobs=%d: res[%d]=%v, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// Cell seeds derive from (experiment id, cell index, base seed) only:
// distinct per cell, stable across runs, independent of worker count.
func TestSweepCellSeeds(t *testing.T) {
	mk := func(exp string, o Opts) []uint64 {
		s := NewSweep(exp, o)
		var seeds []uint64
		for i := 0; i < 8; i++ {
			s.Cell("c", func(c CellInfo) any { return nil })
			seeds = append(seeds, s.cells[i].info.Seed)
		}
		return seeds
	}
	a := mk("fig5", Opts{Jobs: 1})
	b := mk("fig5", Opts{Jobs: 8})
	c := mk("fig6", Opts{Jobs: 1})
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d varies with worker count", i)
		}
		if a[i] == c[i] {
			t.Errorf("seed %d identical across experiments", i)
		}
		if seen[a[i]] {
			t.Errorf("duplicate cell seed %x", a[i])
		}
		seen[a[i]] = true
	}
	if d := mk("fig5", Opts{Jobs: 1, Seed: 99}); d[0] == a[0] {
		t.Error("cell seed ignores the base seed")
	}
}

// Progress narration counts every cell exactly once.
func TestSweepProgress(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewSweep("prog", Opts{Jobs: 4, Progress: w})
	for i := 0; i < 10; i++ {
		s.Cell(fmt.Sprintf("c%d", i), func(CellInfo) any { return nil })
	}
	s.Gather()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if n := strings.Count(out, "done in"); n != 10 {
		t.Fatalf("narrated %d cells, want 10:\n%s", n, out)
	}
	if !strings.Contains(out, "/10 prog/c") {
		t.Fatalf("narration missing cell identity:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
