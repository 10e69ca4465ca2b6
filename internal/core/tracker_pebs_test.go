package core

import (
	"fmt"
	"testing"

	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// refPEBSTracker is the PEBS tracker with its drain replaced by the
// one-pass reference loop: each record is looked up and observed before
// the next record is looked up.
type refPEBSTracker struct{ *pebsTracker }

func (r refPEBSTracker) Poll(now, dt int64) {
	t := r.pebsTracker
	if t.recScratch == nil {
		t.recScratch = make([]pebs.Record, 1024)
	}
	grant := dt
	for {
		n := t.reader.DrainBatch(t.buffer, grant, t.recScratch)
		grant = 0
		r.observeBatch(t.recScratch[:n])
		if n < len(t.recScratch) {
			break
		}
	}
	t.reader.Settle(dt)
}

func (r refPEBSTracker) observeBatch(recs []pebs.Record) {
	pages := r.h.pages
	for _, rec := range recs {
		wi := int(rec.Page) >> piWindowShift
		if wi >= len(pages) || pages[wi] == nil {
			continue
		}
		pi := pages[wi][int(rec.Page)&piWindowMask]
		if pi == nil {
			continue
		}
		r.h.pol.Observe(pi, rec.Kind == pebs.Store, 1)
	}
}

// drainTwin is a PEBS-tracked machine whose page table has every kind of
// unmanaged ID: a mapped but untouched region (nil windows), a partly
// touched region (nil slots in a live window), and IDs past the table.
type drainTwin struct {
	m          *machine.Machine
	h          *HeMem
	gups, part *vm.Region
	gap        *vm.Region
}

func newDrainTwin(policy string, seed uint64, reference bool) drainTwin {
	h := New(Config{Policy: policy, SamplePeriod: 1000, FreeTargets: map[vm.TierID]int64{vm.TierDRAM: 64 * sim.MB}})
	if reference {
		h.tracker = refPEBSTracker{h.tracker.(*pebsTracker)}
	}
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Tiers = machine.ClassicTiers(1*sim.GB, 0, 0)
	m := machine.New(mcfg, h)
	d := drainTwin{m: m, h: h}
	d.gap = m.AS.Map("gap", 2*sim.GB)
	d.gups = gups.New(m, gups.Config{WorkingSet: 4 * sim.GB, HotSet: 1 * sim.GB, Seed: seed}).Region()
	d.part = m.AS.Map("part", 1*sim.GB)
	m.TouchRange(d.gups, 0, d.gups.NumPages())
	m.TouchRange(d.part, 0, 100)
	return d
}

// observe feeds recs through the twin's drain, bypassing the buffer.
func (d drainTwin) observe(recs []pebs.Record) {
	switch t := d.h.tracker.(type) {
	case *pebsTracker:
		t.observeBatch(recs)
	case refPEBSTracker:
		t.observeBatch(recs)
	}
}

// craftBatch mixes unmanaged IDs of all three kinds, in-flight pages, a
// few pages sampled often enough to cross the cooling threshold (and the
// write threshold) within the batch, and uniform background samples.
func (d drainTwin) craftBatch(rng *sim.Rand, inFlight []vm.PageID) []pebs.Record {
	recs := make([]pebs.Record, 1024)
	for i := range recs {
		var id vm.PageID
		switch r := rng.Intn(100); {
		case r < 4:
			id = d.gap.PageAt(rng.Intn(d.gap.NumPages())).ID // nil window
		case r < 8:
			id = d.part.PageAt(100 + rng.Intn(d.part.NumPages()-100)).ID // nil slot
		case r < 10:
			id = vm.PageID(1<<24 + rng.Intn(1<<20)) // past the table
		case r < 18:
			id = inFlight[rng.Intn(len(inFlight))]
		case r < 50:
			id = d.gups.PageAt(rng.Intn(6)).ID // bursty: cools and turns write-heavy
		case r < 55:
			id = d.part.PageAt(rng.Intn(100)).ID
		default:
			id = d.gups.PageAt(rng.Intn(d.gups.NumPages())).ID
		}
		kind := pebs.Kind(rng.Intn(3))
		recs[i] = pebs.Record{Page: id, Kind: kind}
	}
	return recs
}

// listIDs returns the page IDs on l, front to back.
func listIDs(l *List) []vm.PageID {
	var ids []vm.PageID
	for pi := l.Front(); pi != nil; pi = pi.next {
		ids = append(ids, pi.Page.ID)
	}
	return ids
}

// compareDrainTwins fails unless a and b agree on engine statistics, the
// cooling clock, every managed page's counters, every hot and cold list's
// order, and (under heat) every heat bucket.
func compareDrainTwins(t *testing.T, what string, a, b drainTwin) {
	t.Helper()
	if a.h.Stats() != b.h.Stats() || a.h.clock != b.h.clock {
		t.Fatalf("%s: stats %+v clock %d, reference %+v clock %d", what, a.h.Stats(), a.h.clock, b.h.Stats(), b.h.clock)
	}
	for _, r := range [][2]*vm.Region{{a.gups, b.gups}, {a.part, b.part}} {
		for i := 0; i < r[0].NumPages(); i++ {
			ia, ib := a.h.info(r[0].PageAt(i).ID), b.h.info(r[1].PageAt(i).ID)
			if (ia == nil) != (ib == nil) {
				t.Fatalf("%s: %s page %d managed on one twin only", what, r[0].Name, i)
			}
			if ia == nil {
				continue
			}
			if ia.Reads != ib.Reads || ia.Writes != ib.Writes || ia.CoolClock != ib.CoolClock ||
				ia.WriteHeavy != ib.WriteHeavy || (ia.list == nil) != (ib.list == nil) {
				t.Fatalf("%s: %s page %d: %+v, reference %+v", what, r[0].Name, i, *ia, *ib)
			}
		}
	}
	lists := func(h *HeMem) []*List {
		var ls []*List
		for i := range h.hot {
			ls = append(ls, &h.hot[i], &h.cold[i])
		}
		return ls
	}
	la, lb := lists(a.h), lists(b.h)
	for i := range la {
		ida, idb := listIDs(la[i]), listIDs(lb[i])
		if len(ida) != len(idb) {
			t.Fatalf("%s: list %s has %d pages, reference %d", what, la[i].Name, len(ida), len(idb))
		}
		for j := range ida {
			if ida[j] != idb[j] {
				t.Fatalf("%s: list %s position %d: page %d, reference %d", what, la[i].Name, j, ida[j], idb[j])
			}
		}
	}
	if pa, ok := a.h.pol.(*heatPolicy); ok {
		pb := b.h.pol.(*heatPolicy)
		for i, rh := range pa.regs {
			for j, bk := range rh.buckets {
				if bk != pb.regs[i].buckets[j] {
					t.Fatalf("%s: heat region %d bucket %d: %+v, reference %+v", what, i, j, bk, pb.regs[i].buckets[j])
				}
			}
		}
	}
}

// Resolving a drained batch's PageInfos before observing any of them is
// exact: on twin engines, the two-pass drain and the one-pass reference
// leave identical statistics, per-page counters, list orders and heat,
// both over a real run and over crafted batches mixing unmanaged IDs,
// in-flight pages, mid-batch cooling and write-heavy transitions.
func TestPEBSDrainMatchesOnePassReference(t *testing.T) {
	for _, policy := range []string{"hemem", "heat"} {
		for _, seed := range []uint64{1, 2, 3} {
			a := newDrainTwin(policy, seed, false)
			b := newDrainTwin(policy, seed, true)
			a.m.Run(300 * sim.Millisecond)
			b.m.Run(300 * sim.Millisecond)
			what := fmt.Sprintf("%s seed %d", policy, seed)
			compareDrainTwins(t, what+" after run", a, b)
			if s := a.h.Stats(); s.Samples == 0 || s.Promotions == 0 {
				t.Fatalf("%s: run too quiet to compare: %+v", what, s)
			}

			// Take every 17th listed GUPS page off its list on both
			// twins, as a migration in flight does.
			var inFlight []vm.PageID
			for i := 6; i < a.gups.NumPages(); i += 17 {
				pa, pb := a.h.info(a.gups.PageAt(i).ID), b.h.info(b.gups.PageAt(i).ID)
				if pa.list != nil {
					pa.list.Remove(pa)
					pb.list.Remove(pb)
					inFlight = append(inFlight, pa.Page.ID)
				}
			}
			if len(inFlight) == 0 {
				t.Fatalf("%s: no page to put in flight", what)
			}

			rng := sim.NewRand(seed)
			before := a.h.Stats()
			writeHeavy := func() (n int) {
				for i := 0; i < 6; i++ {
					if a.h.info(a.gups.PageAt(i).ID).WriteHeavy {
						n |= 1 << i
					}
				}
				return n
			}
			flips := 0
			for batch := 0; batch < 40; batch++ {
				recs := a.craftBatch(rng, inFlight)
				wh := writeHeavy()
				a.observe(recs)
				b.observe(recs)
				compareDrainTwins(t, fmt.Sprintf("%s batch %d", what, batch), a, b)
				if writeHeavy() != wh {
					flips++
				}
			}
			if policy == "hemem" {
				if n := a.h.Stats().CoolEpochs - before.CoolEpochs; n < 40 {
					t.Fatalf("%s: crafted batches advanced the cooling clock only %d times", what, n)
				}
				if flips == 0 {
					t.Fatalf("%s: crafted batches never changed a page's write-heavy state", what)
				}
			}
		}
	}
}

// A steady-state step of a warmed PEBS GUPS machine allocates nothing:
// the machine reuses its pending-sample slice and record scratch, and the
// tracker its record and PageInfo scratch.
func TestPEBSStepAllocationFree(t *testing.T) {
	h := New(Config{})
	mcfg := machine.DefaultConfig()
	mcfg.Tiers = machine.ClassicTiers(4*sim.GB, 0, 0)
	m := machine.New(mcfg, h)
	gups.New(m, gups.Config{WorkingSet: 16 * sim.GB, HotSet: 2 * sim.GB, Seed: 1})
	m.Warm()
	m.Run(200 * sim.Millisecond)
	step := func() { m.Step(m.Cfg.Quantum) }
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("Step allocates %v times per step, want 0", n)
	}
	if h.Stats().Samples == 0 {
		t.Fatal("no PEBS samples observed")
	}
}
