package memmode

import (
	"testing"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
)

// A scratch row served from the per-zone cache must equal the row a full
// rebuild would produce, field for field — the incremental path is a pure
// memoization, never an approximation.
func TestReusedRowsMatchRecomputation(t *testing.T) {
	mm := New()
	m := machine.New(machine.DefaultConfig(), mm)
	setA := m.AS.Map("a", 64*sim.MB).AsSet()
	setB := m.AS.Map("b", 256*sim.MB).AsSet()
	comps := []machine.Component{
		{Set: setA, Share: 1, ReadBytes: 64, WriteBytes: 8},
		{Set: setB, Share: 1, ReadBytes: 128},
	}
	rates := []float64{0.25, 0.125}
	mm.ObserveTraffic(0, comps, rates)
	mm.ObserveTraffic(50*sim.Millisecond, comps, rates) // second pass reuses both rows
	if mm.rowsReused != 2 {
		t.Fatalf("reused %d rows, want 2", mm.rowsReused)
	}
	for i, z := range mm.order {
		if !z.modelCached || !z.modelActive {
			t.Fatalf("zone %d: cached=%v active=%v", i, z.modelCached, z.modelActive)
		}
		want := zoneModel{
			z:       z,
			perLine: z.perLineRate(),
			dirty:   z.dirtyFrac(),
			lambda:  z.lines / mm.cacheSets,
		}
		if z.modelRow != want {
			t.Errorf("zone %d: cached row %+v != recomputed %+v", i, z.modelRow, want)
		}
	}
}
