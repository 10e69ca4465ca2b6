package vm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/tieredmem/hemem/internal/sim"
)

func TestMapCreatesPages(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 10*sim.MB)
	if r.NumPages() != 5 {
		t.Fatalf("pages = %d, want 5", r.NumPages())
	}
	if r.Size() != 10*sim.MB {
		t.Fatalf("size = %d", r.Size())
	}
	if r.Count(TierNone) != 5 {
		t.Fatalf("new pages should be TierNone, got %d", r.Count(TierNone))
	}
	// Rounds up partial pages.
	r2 := a.Map("odd", 3*sim.MB)
	if r2.NumPages() != 2 {
		t.Fatalf("odd-sized region pages = %d, want 2", r2.NumPages())
	}
	if a.NumPages() != 7 {
		t.Fatalf("NumPages = %d, want 7", a.NumPages())
	}
	// Global IDs resolve.
	for _, p := range r2.AllPages() {
		if a.Page(p.ID) != p {
			t.Fatal("Page(ID) mismatch")
		}
	}
	// Regions do not overlap.
	if r2.Start < r.Start+r.Size() {
		t.Fatal("regions overlap")
	}
}

func TestSetTierMaintainsCounts(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 20*sim.MB)
	hot := NewPageSet("hot", r.AllPages()[:4])

	r.PageAt(0).SetTier(TierDRAM)
	r.PageAt(1).SetTier(TierNVM)
	r.PageAt(5).SetTier(TierNVM)

	if r.Count(TierDRAM) != 1 || r.Count(TierNVM) != 2 || r.Count(TierNone) != 7 {
		t.Fatalf("region counts = %d/%d/%d", r.Count(TierDRAM), r.Count(TierNVM), r.Count(TierNone))
	}
	if hot.Count(TierDRAM) != 1 || hot.Count(TierNVM) != 1 {
		t.Fatalf("set counts = %d/%d", hot.Count(TierDRAM), hot.Count(TierNVM))
	}
	// Idempotent.
	r.PageAt(0).SetTier(TierDRAM)
	if r.Count(TierDRAM) != 1 {
		t.Fatal("SetTier not idempotent")
	}
	// Move between tiers.
	r.PageAt(0).SetTier(TierNVM)
	if r.Count(TierDRAM) != 0 || r.Count(TierNVM) != 3 {
		t.Fatal("tier move miscounted")
	}
	if hot.Frac(TierNVM) != 0.5 {
		t.Fatalf("hot NVM frac = %v, want 0.5", hot.Frac(TierNVM))
	}
}

func TestPageSetAddRemove(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 8*sim.MB)
	for _, p := range r.AllPages() {
		p.SetTier(TierDRAM)
	}
	s := NewPageSet("s", r.AllPages())
	if s.Len() != 4 || s.Count(TierDRAM) != 4 {
		t.Fatalf("set len/count = %d/%d", s.Len(), s.Count(TierDRAM))
	}
	p := s.Remove(1)
	if s.Len() != 3 || s.Count(TierDRAM) != 3 {
		t.Fatalf("after remove: len/count = %d/%d", s.Len(), s.Count(TierDRAM))
	}
	// The removed page no longer tracks the set.
	p.SetTier(TierNVM)
	if s.Count(TierNVM) != 0 {
		t.Fatal("removed page still updates set counts")
	}
	// Remaining pages still track it.
	s.Page(0).SetTier(TierNVM)
	if s.Count(TierNVM) != 1 {
		t.Fatal("remaining page does not update set counts")
	}
	if s.Bytes() != 3*2*sim.MB {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

// Property: under any sequence of tier moves, per-tier counts of a set
// always sum to its length and match a naive recount.
func TestSetCountConservation(t *testing.T) {
	f := func(moves []uint16) bool {
		a := NewAddressSpace(2 * sim.MB)
		r := a.Map("heap", 64*sim.MB) // 32 pages
		s := NewPageSet("s", r.AllPages()[8:24])
		for _, mv := range moves {
			p := r.PageAt(int(mv) % r.NumPages())
			p.SetTier(Tier(int(mv/64)%3 + 0)) // TierNone..TierNVM
		}
		var want [3]int
		for _, p := range s.Pages() {
			want[p.Tier]++
		}
		total := 0
		for tier := TierNone; tier <= TierNVM; tier++ {
			if s.Count(tier) != want[tier] {
				return false
			}
			total += s.Count(tier)
		}
		return total == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any sequence of tier moves across two regions, then
// the unmapping of one, the address space's per-tier count equals the sum
// of its mapped regions' counts for every placed tier, and the TierNone
// count covers every other page ever mapped.
func TestAddressSpaceCountConservation(t *testing.T) {
	f := func(moves []uint16, unmapFirst bool) bool {
		a := NewAddressSpace(2 * sim.MB)
		rs := []*Region{a.Map("a", 64*sim.MB), a.Map("b", 32*sim.MB)} // 32 + 16 pages
		for _, mv := range moves {
			r := rs[int(mv)%2]
			r.PageAt(int(mv/2) % r.NumPages()).SetTier(Tier(int(mv/128) % 3)) // TierNone..TierNVM
		}
		if unmapFirst {
			a.Unmap(rs[0])
		}
		placed := 0
		for tier := TierDRAM; tier < MaxTiers; tier++ {
			sum := 0
			for _, r := range a.Regions {
				sum += r.Count(tier)
			}
			if a.Count(tier) != sum {
				return false
			}
			placed += sum
		}
		return a.Count(TierNone) == a.NumPages()-placed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Figure 3: scanning terabytes of base pages takes seconds; huge pages
// milliseconds; gigantic pages microseconds. Small capacities are fast for
// all page sizes.
func TestScanTimeShape(t *testing.T) {
	m := DefaultScanModel()

	oneTB4K := m.ScanTime(sim.TB, 4*1024)
	if oneTB4K < 1*sim.Second || oneTB4K > 10*sim.Second {
		t.Errorf("1TB @4K scan = %v ms, want seconds", oneTB4K/sim.Millisecond)
	}
	oneTB2M := m.ScanTime(sim.TB, 2*sim.MB)
	if oneTB2M > 50*sim.Millisecond {
		t.Errorf("1TB @2M scan = %v ms, want few ms", oneTB2M/sim.Millisecond)
	}
	oneTB1G := m.ScanTime(sim.TB, sim.GB)
	if oneTB1G > sim.Millisecond {
		t.Errorf("1TB @1G scan = %v µs, want µs", oneTB1G/sim.Microsecond)
	}
	// Small memory is fast regardless of page size.
	if m.ScanTime(10*sim.GB, 4*1024) > 100*sim.Millisecond {
		t.Error("10GB @4K scan should be well under 100ms")
	}
	// Monotone in capacity.
	if m.ScanTime(2*sim.TB, 4*1024) <= oneTB4K {
		t.Error("scan time not monotone in capacity")
	}
	// Partial page rounds up.
	if m.ScanTime(1, 4*1024) == 0 {
		t.Error("scan of 1 byte should cost one PTE visit")
	}
}

func TestShootdownStall(t *testing.T) {
	m := DefaultScanModel()
	if m.ShootdownStall(0) != 0 {
		t.Fatal("no pages cleared should cost nothing")
	}
	one := m.ShootdownStall(1)
	if one != m.IPIStall {
		t.Fatalf("one page = %d, want one IPI %d", one, m.IPIStall)
	}
	batch := m.ShootdownStall(m.ShootdownBatch)
	if batch != m.IPIStall {
		t.Fatalf("full batch = %d, want one IPI", batch)
	}
	two := m.ShootdownStall(m.ShootdownBatch + 1)
	if two != 2*m.IPIStall {
		t.Fatalf("batch+1 = %d, want two IPIs", two)
	}
}

func TestTierString(t *testing.T) {
	if TierDRAM.String() != "DRAM" || TierNVM.String() != "NVM" || TierNone.String() != "none" {
		t.Fatal("Tier strings wrong")
	}
	if TierDisk.String() != "disk" || TierCXL.String() != "CXL" {
		t.Fatal("Tier strings wrong for disk/CXL")
	}
	// Values outside the table must not silently alias a real tier.
	if s := Tier(MaxTiers + 3).String(); s != "tier(11)" {
		t.Fatalf("unknown tier prints %q, want explicit tier(11)", s)
	}
	if s := Tier(-1).String(); s != "tier(-1)" {
		t.Fatalf("negative tier prints %q, want explicit tier(-1)", s)
	}
}

// Every tier's name identifies it: no two values in or around the tier
// set print the same name.
func TestTierStringRoundTrip(t *testing.T) {
	seen := map[string]Tier{}
	for id := Tier(-1); id <= MaxTiers; id++ {
		name := id.String()
		if prev, dup := seen[name]; dup {
			t.Fatalf("tiers %d and %d both print %q", prev, id, name)
		}
		seen[name] = id
	}
}

func TestMapPanicsOnBadPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAddressSpace(0) did not panic")
		}
	}()
	NewAddressSpace(0)
}

// Page is the stride of every whole-region walk, so its packed size is
// pinned: ID and Index share a word, and Tier, Migrating, the two set
// slots and AuditMark share another.
func TestPageLayout(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Page{}) = %d, want 24", got)
	}
	if got := unsafe.Offsetof(Page{}.AuditMark); got != 20 {
		t.Fatalf("AuditMark at offset %d, want 20 (after the set slots)", got)
	}
	if got := unsafe.Sizeof(pageChunk{}); got != 1536 {
		t.Fatalf("a 64-page chunk is %d bytes, want 1536 (a size class, no slack)", got)
	}
}

// checkRegionTable verifies r's set table and spill table against its
// pages: every row's reference count equals the page slots naming it, no
// slot names a free row, every spilled page has a spill entry and every
// spill entry a spilled page.
func checkRegionTable(t *testing.T, r *Region) {
	t.Helper()
	refs := make([]int32, len(r.sets))
	spilled := 0
	r.EachPage(func(p *Page) {
		if p.spilled() {
			spilled++
			if p.slots[1] != SlotSpill {
				t.Fatalf("page %d: spilled with slots %v", p.Index, p.slots)
			}
			if _, ok := r.spill[p.Index]; !ok {
				t.Fatalf("page %d: spilled without a spill entry", p.Index)
			}
			return
		}
		for _, k := range p.slots {
			if k == 0 {
				continue
			}
			if int(k) > len(r.sets) || r.sets[k-1].set == nil {
				t.Fatalf("page %d: slot %d names no row (table of %d)", p.Index, k, len(r.sets))
			}
			refs[k-1]++
		}
	})
	for i, e := range r.sets {
		if e.refs != refs[i] {
			t.Fatalf("row %d (%v): refs %d, %d slots name it", i+1, e.set, e.refs, refs[i])
		}
		if (e.set == nil) != (e.refs == 0) {
			t.Fatalf("row %d: set %v with %d refs", i+1, e.set, e.refs)
		}
	}
	if n := len(r.sets); n > 0 && r.sets[n-1].set == nil {
		t.Fatalf("table keeps a free row at its end (%d rows)", n)
	}
	if spilled != len(r.spill) {
		t.Fatalf("%d spilled pages, %d spill entries", spilled, len(r.spill))
	}
}

// The spill table holds a page's memberships only while it is in three
// or more sets, every membership, in its slots or spilled, tracks tier
// moves, and the page returns to its slots once two sets are left.
func TestPageOverflowSets(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 4*sim.MB)
	p := r.PageAt(0)
	sets := make([]*PageSet, 4)
	for i := range sets {
		sets[i] = NewPageSet(fmt.Sprint("s", i), []*Page{p})
		if sp := p.slots[0] == SlotSpill; sp != (i >= 2) || (len(r.spill) == 1) != sp {
			t.Fatalf("after %d sets: slots %v, %d spill entries", i+1, p.slots, len(r.spill))
		}
		checkRegionTable(t, r)
	}
	// Spilling moved the slotted memberships out: no row stays live.
	if len(r.sets) != 0 {
		t.Fatalf("spilled page leaves %d table rows", len(r.sets))
	}
	p.SetTier(TierDRAM)
	n := 0
	p.EachSet(func(s *PageSet) {
		if s != sets[n] {
			t.Errorf("EachSet position %d is %s, want %s", n, s.Name, sets[n].Name)
		}
		n++
		if s.Count(TierDRAM) != 1 {
			t.Errorf("set %s misses the move to DRAM", s.Name)
		}
	})
	if n != 4 || len(p.InSets()) != 4 {
		t.Fatalf("EachSet visited %d sets, InSets %d, want 4", n, len(p.InSets()))
	}
	// Leaving the first set keeps its hole while spilled and after the
	// return to the slots: s4 fills it.
	sets[0].Remove(0)
	sets[3].Remove(0)
	if !p.spilled() {
		t.Fatal("page left the spill table with three sets")
	}
	sets[2].Remove(0)
	if p.spilled() || len(r.spill) != 0 || p.slots[0] != 0 || p.slots[1] == 0 {
		t.Fatalf("one set left: slots %v, %d spill entries", p.slots, len(r.spill))
	}
	checkRegionTable(t, r)
	s4 := NewPageSet("s4", []*Page{p})
	if got := p.InSets(); len(got) != 2 || got[0] != s4 || got[1] != sets[1] {
		t.Fatalf("after refilling the hole: %v", got)
	}
	NewPageSet("s5", []*Page{p})
	a.Unmap(r)
	if p.slots != [2]uint8{} || len(p.InSets()) != 0 {
		t.Fatalf("unmapped page keeps sets %v", p.InSets())
	}
	if r.sets != nil || r.spill != nil {
		t.Fatalf("unmapped region keeps %d table rows, %d spill entries", len(r.sets), len(r.spill))
	}
}

// A region with more live sets than a slot byte can name spills the
// memberships past the table's last row, and takes them back into the
// slots once a row is free again.
func TestPageSlotTableFull(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", (maxSlots+1)*2*sim.MB)
	pages := r.AllPages()
	sets := make([]*PageSet, len(pages))
	for i, p := range pages {
		sets[i] = NewPageSet(fmt.Sprint("s", i), []*Page{p})
	}
	last := pages[maxSlots]
	if len(r.sets) != maxSlots || !last.spilled() || len(r.spill) != 1 {
		t.Fatalf("table of %d rows, last page slots %v, %d spill entries", len(r.sets), last.slots, len(r.spill))
	}
	checkRegionTable(t, r)
	last.SetTier(TierNVM)
	if sets[maxSlots].Count(TierNVM) != 1 {
		t.Fatal("spilled membership misses a tier move")
	}
	if got := last.InSets(); len(got) != 1 || got[0] != sets[maxSlots] {
		t.Fatalf("spilled page is in %v", got)
	}
	// A second set on a spilled page spills too; freeing a row lets the
	// page return once its sets fit the slots.
	extra := NewPageSet("extra", []*Page{last})
	sets[0].Remove(0)
	extra.Remove(0)
	if last.spilled() || len(r.spill) != 0 {
		t.Fatalf("page stays spilled with a free row: slots %v", last.slots)
	}
	checkRegionTable(t, r)
	want := a.MetadataBytes()
	a.Unmap(r)
	if r.sets != nil || r.spill != nil {
		t.Fatalf("unmapped region keeps %d table rows, %d spill entries", len(r.sets), len(r.spill))
	}
	if got := a.MetadataBytes(); got >= want {
		t.Fatalf("MetadataBytes %d after unmap, %d before", got, want)
	}
}

// refPage is the pointer-based membership model the slots replace: two
// positions that keep their holes and an overflow list that a removal
// reorders by swapping its last entry into the gap.
type refPage struct {
	set0, set1 *PageSet
	ov         []*PageSet
}

func (rp *refPage) add(s *PageSet) {
	switch {
	case rp.set0 == nil:
		rp.set0 = s
	case rp.set1 == nil:
		rp.set1 = s
	default:
		rp.ov = append(rp.ov, s)
	}
}

func (rp *refPage) remove(s *PageSet) {
	switch {
	case rp.set0 == s:
		rp.set0 = nil
	case rp.set1 == s:
		rp.set1 = nil
	default:
		for j, q := range rp.ov {
			if q == s {
				last := len(rp.ov) - 1
				rp.ov[j] = rp.ov[last]
				rp.ov = rp.ov[:last]
				return
			}
		}
	}
}

func (rp *refPage) sets() []*PageSet {
	var out []*PageSet
	for _, s := range append([]*PageSet{rp.set0, rp.set1}, rp.ov...) {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// setNames lists the sets' names in order.
func setNames(sets []*PageSet) string {
	var b strings.Builder
	for _, s := range sets {
		b.WriteString(s.Name + " ")
	}
	return b.String()
}

// TestPageSetSlotsMatchPointerModel applies seeded random Add, Remove,
// SetTier and NewPageSet sequences over two regions, with sets that span
// both and a few with a page twice, to the slot representation and to
// the pointer model. After every step each touched page's EachSet order
// matches the model's, and every set's tier counts match a recount of
// its members.
func TestPageSetSlotsMatchPointerModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		a := NewAddressSpace(2 * sim.MB)
		regions := []*Region{a.Map("r0", 24*2*sim.MB), a.Map("r1", 24*2*sim.MB)}
		var pages []*Page
		for _, r := range regions {
			pages = append(pages, r.AllPages()...)
		}
		model := make(map[*Page]*refPage, len(pages))
		for _, p := range pages {
			model[p] = &refPage{}
		}
		var sets []*PageSet
		check := func(step int, what string) {
			t.Helper()
			for _, p := range pages {
				want := model[p].sets()
				var got []*PageSet
				p.EachSet(func(s *PageSet) { got = append(got, s) })
				if setNames(got) != setNames(want) {
					t.Fatalf("seed %d step %d (%s): page %d EachSet %s, model %s", seed, step, what, p.ID, setNames(got), setNames(want))
				}
			}
			for _, s := range sets {
				var c tierCounts
				for _, p := range s.Pages() {
					c[p.Tier]++
				}
				if c != s.counts {
					t.Fatalf("seed %d step %d (%s): set %s counts %v, recount %v", seed, step, what, s.Name, s.counts, c)
				}
			}
			for _, r := range regions {
				checkRegionTable(t, r)
			}
		}
		for step := 0; step < 400; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op == 0 || len(sets) == 0:
				n := rng.Intn(6)
				members := make([]*Page, n)
				for i := range members {
					members[i] = pages[rng.Intn(len(pages))]
				}
				s := NewPageSet(fmt.Sprint("s", len(sets)), members)
				for _, p := range members {
					model[p].add(s)
				}
				sets = append(sets, s)
				what = "new " + s.Name
			case op <= 4:
				s := sets[rng.Intn(len(sets))]
				p := pages[rng.Intn(len(pages))]
				s.Add(p)
				model[p].add(s)
				what = "add to " + s.Name
			case op <= 8:
				s := sets[rng.Intn(len(sets))]
				if s.Len() == 0 {
					continue
				}
				p := s.Remove(rng.Intn(s.Len()))
				model[p].remove(s)
				what = "remove from " + s.Name
			default:
				p := pages[rng.Intn(len(pages))]
				p.SetTier(Tier(1 + rng.Intn(3)))
				what = "set tier"
			}
			check(step, what)
		}
		a.Unmap(regions[0])
		for _, p := range regions[0].AllPages() {
			model[p] = &refPage{}
		}
		for _, s := range sets {
			for _, p := range s.Pages() {
				if p.Region == regions[0] {
					t.Fatalf("seed %d: set %s keeps unmapped page %d", seed, s.Name, p.ID)
				}
			}
		}
		check(-1, "unmap")
		if regions[0].sets != nil || regions[0].spill != nil {
			t.Fatalf("seed %d: unmapped region keeps %d rows, %d spill entries", seed, len(regions[0].sets), len(regions[0].spill))
		}
	}
}

// A set cut from two regions takes a row in each region's table, its
// counts follow moves in both, and unmapping one region drops its row and
// its members while the other region's stay.
func TestPageSetSpansRegions(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r0, r1 := a.Map("r0", 8*2*sim.MB), a.Map("r1", 8*2*sim.MB)
	s := NewPageSet("both", append(r0.AllPages()[:4], r1.AllPages()[:4]...))
	for _, r := range []*Region{r0, r1} {
		if got, refs := r.SlotSet(1); got != s || refs != 4 || r.NumSlots() != 1 {
			t.Fatalf("%s: row 1 = %v with %d refs, %d rows", r.Name, got, refs, r.NumSlots())
		}
		if k := r.PageAt(2).SetSlots(); k != 1 {
			t.Fatalf("%s: page 2 slots %#04x, want slot 0 naming row 1", r.Name, k)
		}
	}
	r0.PageAt(1).SetTier(TierDRAM)
	r1.PageAt(3).SetTier(TierNVM)
	if s.Count(TierDRAM) != 1 || s.Count(TierNVM) != 1 || s.Count(TierNone) != 6 {
		t.Fatalf("counts after moves in both regions: %v", s.counts)
	}
	before := a.MetadataBytes()
	a.Unmap(r0)
	if s.Len() != 4 || s.Count(TierDRAM) != 0 || s.Count(TierNVM) != 1 {
		t.Fatalf("after unmapping r0: len %d, counts %v", s.Len(), s.counts)
	}
	for _, p := range s.Pages() {
		if p.Region != r1 {
			t.Fatalf("set keeps page %d of %s", p.ID, p.Region.Name)
		}
	}
	if r0.NumSlots() != 0 || r0.sets != nil || r0.spill != nil || r1.NumSlots() != 1 {
		t.Fatalf("rows after unmap: r0 %d, r1 %d", r0.NumSlots(), r1.NumSlots())
	}
	if got, want := before-a.MetadataBytes(), int64(unsafe.Sizeof(setEntry{})); got != want {
		t.Fatalf("unmap freed %d metadata bytes, want the %d of r0's table row", got, want)
	}
	s.Add(r0.PageAt(5)) // a stale page rejoining takes a fresh row
	if r0.NumSlots() != 1 || s.Len() != 5 {
		t.Fatalf("stale page rejoined: %d rows, len %d", r0.NumSlots(), s.Len())
	}
}

// Map refuses a region that would take PageIDs past MaxInt32, before
// allocating its chunk table (256 MiB of pointers here) or the region.
func TestMapPageIDLimit(t *testing.T) {
	a := NewAddressSpace(4 << 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mapping 2^31 pages did not panic")
			}
		}()
		a.Map("huge", (1<<31)*(4<<10))
	}()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refused Map allocated %d bytes", got)
	}
	if a.NumPages() != 0 || len(a.Regions) != 0 {
		t.Fatalf("refused Map left %d pages, %d regions", a.NumPages(), len(a.Regions))
	}
	// The limit counts pages already mapped.
	a.Map("small", 4<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("mapping past MaxInt32 pages in total did not panic")
		}
	}()
	a.Map("rest", math.MaxInt32*(4<<10))
}

// Correctable errors count up per frame, page by page, until the fault
// layer's retire threshold.
func TestFrameHealthCECount(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 8*sim.MB)
	p, q := r.PageAt(1), r.PageAt(2)
	const threshold = 3
	for want := 1; want <= threshold; want++ {
		if got := a.NoteCorrectableError(p); got != want {
			t.Fatalf("CE %d returned count %d", want, got)
		}
	}
	if a.health[p.ID].ce != threshold || a.health[q.ID].ce != 0 {
		t.Fatalf("CE counts %d/%d, want %d/0", a.health[p.ID].ce, a.health[q.ID].ce, threshold)
	}
	if a.Remaps(p) != 0 || len(a.health) != 1 {
		t.Fatalf("remaps %d, faulted pages %d, want 0/1", a.Remaps(p), len(a.health))
	}
}

// RetireFrame gives the page a clean frame: its CE count resets and its
// remap count grows.
func TestFrameHealthRetireFrame(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 8*sim.MB)
	p := r.PageAt(3)
	a.NoteCorrectableError(p)
	a.NoteCorrectableError(p)
	a.RetireFrame(p)
	if a.health[p.ID].ce != 0 || a.Remaps(p) != 1 {
		t.Fatalf("after retire: CE %d, remaps %d, want 0/1", a.health[p.ID].ce, a.Remaps(p))
	}
	if a.NoteCorrectableError(p) != 1 {
		t.Fatal("new frame did not start a clean CE count")
	}
	a.RetireFrame(p)
	a.RetireFrame(r.PageAt(0))
	if a.Remaps(p) != 2 || a.Remaps(r.PageAt(0)) != 1 || a.RetiredFrames() != 3 {
		t.Fatalf("remaps %d/%d, retired %d, want 2/1/3", a.Remaps(p), a.Remaps(r.PageAt(0)), a.RetiredFrames())
	}
}

// Unmap drops the region's frame-health entries and no other region's.
func TestFrameHealthUnmap(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r1 := a.Map("a", 8*sim.MB)
	r2 := a.Map("b", 8*sim.MB)
	a.RetireFrame(r1.PageAt(0))
	a.NoteCorrectableError(r1.PageAt(3))
	a.NoteCorrectableError(r2.PageAt(0))
	a.Unmap(r1)
	if len(a.health) != 1 || a.health[r2.PageAt(0).ID].ce != 1 {
		t.Fatalf("after unmap: %d faulted pages, r2 CE %d, want 1/1", len(a.health), a.health[r2.PageAt(0).ID].ce)
	}
	if a.Remaps(r1.PageAt(0)) != 0 || a.health[r1.PageAt(3).ID].ce != 0 {
		t.Fatal("unmapped region's pages keep their frame health")
	}
}

// MetadataBytes counts one key and value per frame-health entry.
func TestFrameHealthMetadataBytes(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 8*sim.MB)
	r.MaterializeAll()
	base := a.MetadataBytes()
	a.NoteCorrectableError(r.PageAt(0))
	a.NoteCorrectableError(r.PageAt(0))
	a.RetireFrame(r.PageAt(1))
	if got, want := a.MetadataBytes()-base, int64(2*12); got != want {
		t.Fatalf("two faulted pages add %d bytes, want %d", got, want)
	}
	a.Unmap(r)
	if got := a.MetadataBytes(); got != base {
		t.Fatalf("after unmap MetadataBytes = %d, want %d", got, base)
	}
}

// Without faults the table is never even allocated.
func TestFrameHealthEmptyWithoutFaults(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 64*sim.MB)
	s := NewPageSet("hot", r.AllPages()[:8])
	for i, p := range r.AllPages() {
		p.SetTier(Tier(i%2 + 1))
	}
	s.Remove(0)
	a.Unmap(r)
	if a.health != nil {
		t.Fatalf("fault-free space has a frame-health table of %d entries", len(a.health))
	}
}

// ShuffledPages is rng.Perm applied to AllPages, with the same draws:
// out[k] == AllPages()[perm[k]], and both generators end in step.
func TestShuffledPagesMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		for _, seed := range []uint64{0, 1, 17, 0x9d5} {
			a := NewAddressSpace(2 * sim.MB)
			r := a.Map("heap", int64(n)*2*sim.MB)
			got := r.ShuffledPages(sim.NewRand(seed))
			ref := sim.NewRand(seed)
			perm := ref.Perm(n)
			all := r.AllPages()
			if len(got) != n {
				t.Fatalf("n=%d seed=%d: %d pages", n, seed, len(got))
			}
			for k, i := range perm {
				if got[k] != all[i] {
					t.Fatalf("n=%d seed=%d: out[%d] is page %d, want page %d", n, seed, k, got[k].Index, i)
				}
			}
			rng := sim.NewRand(seed)
			r.ShuffledPages(rng)
			if a, b := rng.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("n=%d seed=%d: next draw %d after ShuffledPages, %d after Perm", n, seed, a, b)
			}
		}
	}
}

// NewPageSet keeps the caller's array instead of copying it, and clips
// its capacity: an Add to a set cut from the front of a shared array
// reallocates rather than overwriting the next set's members. Counts
// and back-pointers stay right through Remove and Add.
func TestNewPageSetAdoptsSlice(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 16*2*sim.MB)
	pages := r.AllPages()
	for i, p := range pages {
		p.SetTier(Tier(i%2 + 1))
	}
	front := NewPageSet("front", pages[:6])
	back := NewPageSet("back", pages[6:])
	if &front.Pages()[0] != &pages[0] || &back.Pages()[0] != &pages[6] {
		t.Fatal("NewPageSet copied its slice")
	}
	if cap(front.Pages()) != 6 {
		t.Fatalf("front capacity %d, want 6", cap(front.Pages()))
	}
	want := append([]*Page(nil), pages[6:]...)
	extra := r.PageAt(10)
	front.Add(extra)
	for i, p := range back.Pages() {
		if p != want[i] {
			t.Fatalf("Add to front overwrote back member %d", i)
		}
	}
	if front.Len() != 7 || front.Page(6) != extra {
		t.Fatalf("front after Add: len %d", front.Len())
	}
	// The sets own pages now, so name the pages through the region.
	p0, p9 := r.PageAt(0), r.PageAt(9)
	front.Remove(0) // p0; extra moves into its slot
	back.Remove(3)  // p9
	back.Add(p0)
	p9.SetTier(TierDRAM)   // in no set now
	p0.SetTier(TierNVM)    // in back only
	extra.SetTier(TierNVM) // in both
	for _, s := range []*PageSet{front, back} {
		var counts tierCounts
		for _, p := range s.Pages() {
			counts[p.Tier]++
			in := false
			p.EachSet(func(ps *PageSet) { in = in || ps == s })
			if !in {
				t.Fatalf("set %s member %d lacks its back-pointer", s.Name, p.Index)
			}
		}
		if counts != s.counts {
			t.Fatalf("set %s counts %v, recount %v", s.Name, s.counts, counts)
		}
	}
	if sets := p9.InSets(); len(sets) != 0 {
		t.Fatalf("removed page still in %d sets", len(sets))
	}
	if sets := p0.InSets(); len(sets) != 1 || sets[0] != back {
		t.Fatalf("page moved from front to back is in %v", sets)
	}
}
