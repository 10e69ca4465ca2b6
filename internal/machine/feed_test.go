package machine_test

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/xmem"
)

// refFeedSamples is the per-component feed the draw-then-flush path
// replaced: each batch of up to 256 draws builds its records from the
// drawn pages at once and pushes them before the next batch is drawn.
func refFeedSamples(m *machine.Machine, s *pebs.Sampler, c *machine.Component, occ float64) {
	loadF := m.Injector.PEBSLoadFactor()
	buf := s.Buffer()
	pages := c.Set.Pages()
	scratch := make([]pebs.Record, 256)
	feed := func(bytes int64, class pebs.Class) {
		n := occ * math.Ceil(float64(bytes)/64)
		if loadF != 1 {
			n *= loadF
		}
		for k := s.Take(n, class); k > 0; {
			batch := min(k, len(scratch))
			for i := 0; i < batch; i++ {
				p := pages[m.Rng.Intn(len(pages))]
				kind := pebs.Store
				if class == pebs.ClassLoad {
					kind = pebs.LoadDRAM
					if p.Tier != m.FastestTier() {
						kind = pebs.LoadNVM
					}
				}
				scratch[i] = pebs.Record{Page: p.ID, Kind: kind}
			}
			buf.PushBatch(scratch[:batch])
			k -= batch
		}
	}
	if c.ReadBytes > 0 {
		feed(c.ReadBytes, pebs.ClassLoad)
	}
	if c.WriteBytes > 0 {
		feed(c.WriteBytes, pebs.ClassStore)
	}
}

// newFeedTwin builds a machine running two GUPS workloads (a read/write
// hot/cold pair and Table 2's write-only/read-only split) whose first
// region straddles DRAM and NVM, plus a small sampler that overruns.
// With storm set, a PEBS storm multiplies the sample inflow.
func newFeedTwin(seed uint64, storm bool) (*machine.Machine, []machine.Workload, *pebs.Sampler) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	cfg.Tiers = machine.ClassicTiers(12*sim.GB, 0, 0)
	if storm {
		cfg.Faults = fault.Config{PEBSStormMTBF: 1, PEBSStormDuration: sim.Second, PEBSStormFactor: 2.5}
	}
	m := machine.New(cfg, xmem.DRAMFirst())
	ws := []machine.Workload{
		gups.New(m, gups.Config{WorkingSet: 16 * sim.GB, HotSet: 4 * sim.GB, Seed: seed}),
		gups.New(m, gups.Config{WorkingSet: 8 * sim.GB, HotSet: 4 * sim.GB, WriteOnlyHot: 2 * sim.GB, Seed: seed + 1}),
	}
	m.Warm()
	if storm {
		m.Injector.Advance(0, sim.Millisecond)
	}
	buf, err := pebs.NewBuffer(700)
	if err != nil {
		panic(err)
	}
	s, err := pebs.NewSampler(50, buf)
	if err != nil {
		panic(err)
	}
	return m, ws, s
}

// Drawing every sample of a step first and building and pushing the
// records once afterwards is exact: on twin machines, the ring buffer
// holds the same records in the same order, the pushed and dropped
// counters agree, and the machine RNG is left at the same point as the
// per-component feed, across buffer overruns, 256-record chunk
// boundaries and PEBS storms.
func TestFeedSamplesMatchesPerComponentFeed(t *testing.T) {
	for _, storm := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			mn, wn, sn := newFeedTwin(seed, storm)
			mr, wr, sr := newFeedTwin(seed, storm)
			if f := mn.Injector.PEBSLoadFactor(); (f != 1) != storm {
				t.Fatalf("storm=%v: PEBS load factor %v", storm, f)
			}
			bn, br := sn.Buffer(), sr.Buffer()
			got := make([]pebs.Record, 400)
			want := make([]pebs.Record, 400)
			var kinds [3]int
			maxStep := 0
			for step := 0; step < 40; step++ {
				// Per-step ops vary so some steps fit the buffer and
				// others overrun it partway through the flush.
				ops := float64(2000 + 7000*(step%4))
				before := bn.Pushed() + bn.Dropped()
				for i := range wn {
					cn, cr := wn[i].Components(), wr[i].Components()
					for j := range cn {
						mn.FeedSamples(sn, &cn[j], ops*cn[j].Share)
						refFeedSamples(mr, sr, &cr[j], ops*cr[j].Share)
					}
				}
				mn.FlushSamples(bn)
				maxStep = max(maxStep, int(bn.Pushed()+bn.Dropped()-before))
				if n := mn.PendingRetained(); n != 0 {
					t.Fatalf("storm=%v seed %d step %d: %d pending slots still hold a page", storm, seed, step, n)
				}
				if bn.Pushed() != br.Pushed() || bn.Dropped() != br.Dropped() || bn.Len() != br.Len() {
					t.Fatalf("storm=%v seed %d step %d: pushed/dropped/len %d/%d/%d, reference %d/%d/%d",
						storm, seed, step, bn.Pushed(), bn.Dropped(), bn.Len(), br.Pushed(), br.Dropped(), br.Len())
				}
				n, nr := bn.PopBatch(got), br.PopBatch(want)
				if n != nr {
					t.Fatalf("storm=%v seed %d step %d: popped %d, reference %d", storm, seed, step, n, nr)
				}
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Fatalf("storm=%v seed %d step %d record %d: %+v, reference %+v", storm, seed, step, i, got[i], want[i])
					}
					kinds[got[i].Kind]++
				}
			}
			if a, b := mn.Rng.Uint64(), mr.Rng.Uint64(); a != b {
				t.Fatalf("storm=%v seed %d: machine RNG diverged: next draw %x, reference %x", storm, seed, a, b)
			}
			if bn.Dropped() == 0 || maxStep <= 256 {
				t.Fatalf("storm=%v seed %d: no overrun (%d dropped) or no multi-chunk step (max %d samples)",
					storm, seed, bn.Dropped(), maxStep)
			}
			for k, c := range kinds {
				if c == 0 {
					t.Fatalf("storm=%v seed %d: no %v records compared", storm, seed, pebs.Kind(k))
				}
			}
		}
	}
}
