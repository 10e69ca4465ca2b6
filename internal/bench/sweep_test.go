package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// runExp renders one experiment with the given worker count.
func runExp(t *testing.T, id string, jobs int) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e.Run(&buf, Opts{Jobs: jobs})
	return buf.String()
}

// Serial (-jobs 1) and parallel (-jobs 8) runs of the sweep-heavy
// experiments must produce byte-identical output: cells share no state
// and derive all randomness from declaration-time identity, so execution
// order cannot leak into results.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	for _, id := range []string{"fig5", "fig10"} {
		t.Run(id, func(t *testing.T) {
			serial := runExp(t, id, 1)
			parallel := runExp(t, id, 8)
			if serial != parallel {
				t.Fatalf("%s output differs between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
					id, serial, parallel)
			}
			if len(serial) < 100 {
				t.Fatalf("%s output suspiciously short:\n%s", id, serial)
			}
		})
	}
}

// The cheap sweeps give the same guarantee instantly, so they always run.
func TestParallelOutputByteIdenticalMicro(t *testing.T) {
	for _, id := range []string{"tab1", "fig1", "fig2", "fig3"} {
		if serial, parallel := runExp(t, id, 1), runExp(t, id, 8); serial != parallel {
			t.Fatalf("%s output differs between -jobs 1 and -jobs 8", id)
		}
	}
}

// The tier-table refactor is load-bearing only if the classic two-tier
// testbed is untouched: every canonical experiment must render byte for
// byte what the pre-refactor code produced. testdata/golden-*.txt were
// captured from the default config before the tier table landed; a diff
// here means the default DRAM+NVM(+swap) behavior drifted. fig10 pins
// the PEBS overrun regime (period 250 drops most samples), which no
// other golden reaches.
func TestGoldenOutputsUnchanged(t *testing.T) {
	micro := []string{"tab1", "fig1", "fig2", "fig3"}
	full := []string{"ext-swap", "fig8", "fig10", "tab2"}
	ids := micro
	if !testing.Short() {
		ids = append(ids, full...)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden-"+id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := runExp(t, id, 0)
			if got != string(want) {
				t.Fatalf("%s output drifted from golden capture:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}
