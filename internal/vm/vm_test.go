package vm

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
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
	for i, id := range r2.AllPages() {
		if p := a.Page(id); p != r2.PageAt(i) || p.ID != id {
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
	hot := a.NewPageSet("hot", r.AllPages()[:4])

	a.SetTier(r.PageAt(0), TierDRAM)
	a.SetTier(r.PageAt(1), TierNVM)
	a.SetTier(r.PageAt(5), TierNVM)

	if r.Count(TierDRAM) != 1 || r.Count(TierNVM) != 2 || r.Count(TierNone) != 7 {
		t.Fatalf("region counts = %d/%d/%d", r.Count(TierDRAM), r.Count(TierNVM), r.Count(TierNone))
	}
	if hot.Count(TierDRAM) != 1 || hot.Count(TierNVM) != 1 {
		t.Fatalf("set counts = %d/%d", hot.Count(TierDRAM), hot.Count(TierNVM))
	}
	// Idempotent.
	a.SetTier(r.PageAt(0), TierDRAM)
	if r.Count(TierDRAM) != 1 {
		t.Fatal("SetTier not idempotent")
	}
	// Move between tiers.
	a.SetTier(r.PageAt(0), TierNVM)
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
	for _, id := range r.AllPages() {
		a.SetTier(a.Page(id), TierDRAM)
	}
	s := a.NewPageSet("s", r.AllPages())
	if s.Len() != 4 || s.Count(TierDRAM) != 4 {
		t.Fatalf("set len/count = %d/%d", s.Len(), s.Count(TierDRAM))
	}
	id := s.Remove(1)
	if s.Len() != 3 || s.Count(TierDRAM) != 3 {
		t.Fatalf("after remove: len/count = %d/%d", s.Len(), s.Count(TierDRAM))
	}
	// The removed page no longer tracks the set.
	a.SetTier(a.Page(id), TierNVM)
	if s.Count(TierNVM) != 0 {
		t.Fatal("removed page still updates set counts")
	}
	// Remaining pages still track it.
	a.SetTier(s.Page(0), TierNVM)
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
		s := a.NewPageSet("s", r.AllPages()[8:24])
		for _, mv := range moves {
			p := r.PageAt(int(mv) % r.NumPages())
			a.SetTier(p, Tier(int(mv/64)%3+0)) // TierNone..TierNVM
		}
		var want [3]int
		for _, id := range s.IDs() {
			want[a.Page(id).Tier]++
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
			a.SetTier(r.PageAt(int(mv/2)%r.NumPages()), Tier(int(mv/128)%3)) // TierNone..TierNVM
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
// pinned: the ID in one half-word and Tier, the flags, the set slot and
// AuditMark in the other. A 32-page chunk is then exactly 256 bytes.
func TestPageLayout(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Page{}) = %d, want 8", got)
	}
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"ID", unsafe.Offsetof(Page{}.ID), 0},
		{"Tier", unsafe.Offsetof(Page{}.Tier), 4},
		{"flags", unsafe.Offsetof(Page{}.flags), 5},
		{"slot", unsafe.Offsetof(Page{}.slot), 6},
		{"AuditMark", unsafe.Offsetof(Page{}.AuditMark), 7},
	} {
		if f.got != f.want {
			t.Errorf("%s at offset %d, want %d", f.name, f.got, f.want)
		}
	}
	if got := unsafe.Sizeof(pageChunk{}); got != 256 {
		t.Fatalf("a %d-page chunk is %d bytes, want 256", chunkPages, got)
	}
}

// The allocator charges a chunk exactly its 256 bytes: a pointer-free
// object carries no allocation header, and 256 is a size class, so the
// chunk fills its slot. A layout or toolchain change that brings back a
// header (or slack) fails here, where unsafe.Sizeof cannot see it. The
// chunks are allocated the way the simulator allocates them, by PageAt's
// first touch of each window.
func TestPageChunkAllocation(t *testing.T) {
	const n = 256
	size := uint64(unsafe.Sizeof(pageChunk{}))
	var charged uint64
	// Up to three tries, so a stray allocation by the runtime during one
	// of them cannot fail the test.
	for try := 0; try < 3; try++ {
		r := NewAddressSpace(2*sim.MB).Map("chunks", n*chunkPages*2*sim.MB)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for ci := 0; ci < n; ci++ {
			r.PageAt(ci << chunkShift)
		}
		runtime.ReadMemStats(&after)
		if r.TouchedPages() != n {
			t.Fatalf("touched %d pages, want one in each of %d chunks", r.TouchedPages(), n)
		}
		if charged = (after.TotalAlloc - before.TotalAlloc) / n; charged == size {
			return
		}
	}
	t.Fatalf("a %d-byte chunk is charged %d bytes", size, charged)
}

// pointerKinds reports the path to the first pointer-holding component
// of type t (a pointer, slice, map, string, channel, function or
// interface, at any depth of arrays and struct fields), or "" if t holds
// none.
func pointerKinds(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Array:
		return pointerKinds(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if bad := pointerKinds(f.Type, path+"."+f.Name); bad != "" {
				return bad
			}
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return fmt.Sprintf("%s (%v)", path, t.Kind())
	}
	return ""
}

// The bulk page metadata holds no pointer, so the garbage collector
// never scans it: the page, the chunk it lives in, and a set's member
// element.
func TestPageMetadataPointerFree(t *testing.T) {
	member := reflect.TypeOf(PageSet{}.ids).Elem()
	for _, typ := range []reflect.Type{reflect.TypeOf(Page{}), reflect.TypeOf(pageChunk{}), member} {
		if bad := pointerKinds(typ, typ.String()); bad != "" {
			t.Errorf("%v holds a pointer at %s", typ, bad)
		}
	}
	if member != reflect.TypeOf(PageID(0)) {
		t.Errorf("set members are %v, want PageID", member)
	}
}

// Index derives a page's position in its region from its global ID, in
// every region and across chunk boundaries: the second and third regions
// here start at IDs 5 and 75, neither a multiple of the chunk size.
func TestPageIndex(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	regions := []*Region{
		a.Map("first", 5*2*sim.MB),
		a.Map("second", 70*2*sim.MB),
		a.Map("third", 100*2*sim.MB),
	}
	for _, r := range regions[1:] {
		if r.base%chunkPages == 0 {
			t.Fatalf("fixture: %s starts at ID %d, a chunk boundary", r.Name, r.base)
		}
	}
	for _, r := range regions {
		for i := 0; i < r.NumPages(); i++ {
			if got := r.Index(r.PageAt(i).ID); got != i {
				t.Fatalf("%s: PageAt(%d) has Index %d", r.Name, i, got)
			}
			if got := r.Index(a.Page(r.PageID(i)).ID); got != i {
				t.Fatalf("%s: page of ID %d has Index %d, want %d", r.Name, r.PageID(i), got, i)
			}
		}
		for ci := 0; ci < r.NumChunks(); ci++ {
			for j, p := range r.Chunk(ci) {
				if i := ci*chunkPages + j; i < r.NumPages() && r.Index(p.ID) != i {
					t.Fatalf("%s: chunk %d slot %d has Index %d, want %d", r.Name, ci, j, r.Index(p.ID), i)
				}
			}
		}
	}
}

// RegionOf, Page and SetOf agree, for every ID ever mapped, with a
// brute-force scan over every region: regions whose bases fall off chunk
// boundaries, a one-page and an empty region, and an unmapped region
// whose stale IDs still resolve, to its pages, now in TierNone and in no
// set.
func TestLookupByIDMatchesScan(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	var regions []*Region
	for i, n := range []int64{5, 70, 1, 0, 100, 33, 64} {
		regions = append(regions, a.Map(fmt.Sprint("r", i), n*2*sim.MB))
	}
	sets := make([]*PageSet, len(regions))
	for i, r := range regions {
		var even []PageID
		for j := 0; j < r.NumPages(); j += 2 {
			even = append(even, r.PageID(j))
		}
		sets[i] = a.NewPageSet(r.Name, even)
		for j := 0; j < r.NumPages(); j++ {
			a.SetTier(r.PageAt(j), Tier(1+j%2))
		}
	}
	dead := 4
	a.Unmap(regions[dead])
	for id := PageID(0); int(id) < a.NumPages(); id++ {
		ri, i := -1, 0
		for k, r := range regions {
			if id >= r.base && id < r.base+PageID(r.NumPages()) {
				ri, i = k, int(id-r.base)
			}
		}
		r := regions[ri]
		if got := a.RegionOf(id); got != r {
			t.Fatalf("RegionOf(%d) = %v, want %v", id, got, r)
		}
		if !r.Contains(id) || r.Index(id) != i || r.PageID(i) != id {
			t.Fatalf("ID %d: Contains %v, Index %d, want page %d of %s", id, r.Contains(id), r.Index(id), i, r.Name)
		}
		p := a.Page(id)
		if p != r.PageAt(i) || p.ID != id {
			t.Fatalf("Page(%d) is not page %d of %s", id, i, r.Name)
		}
		var want *PageSet
		if ri != dead && i%2 == 0 {
			want = sets[ri]
		}
		if got := a.SetOf(p); got != want {
			t.Fatalf("SetOf(page %d) = %v, want %v", id, got, want)
		}
		if ri == dead && p.Tier != TierNone {
			t.Fatalf("stale page %d in %v, want TierNone", id, p.Tier)
		}
	}
	for _, r := range regions {
		for _, other := range regions {
			if other != r && other.NumPages() > 0 && r.Contains(other.base) {
				t.Fatalf("%s contains %s's first page", r.Name, other.Name)
			}
		}
	}
}

// checkRegionTable verifies r's set table against its pages: every row's
// reference count equals the page slots naming it, no slot names a free
// row, and no free row ends the table.
func checkRegionTable(t *testing.T, r *Region) {
	t.Helper()
	refs := make([]int32, len(r.sets))
	r.EachPage(func(p *Page) {
		if k := p.slot; k != 0 {
			if int(k) > len(r.sets) || r.sets[k-1].set == nil {
				t.Fatalf("page %d: slot %d names no row (table of %d)", r.Index(p.ID), k, len(r.sets))
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
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// A region names at most 255 sets: the 256th panics without touching the
// page or the table, and joins once a row is free again.
func TestPageSlotTableFull(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", (MaxRegionSets+1)*2*sim.MB)
	pages := r.AllPages()
	sets := make([]*PageSet, MaxRegionSets)
	for i := range sets {
		sets[i] = a.NewPageSet(fmt.Sprint("s", i), []PageID{pages[i]})
	}
	last := a.Page(pages[MaxRegionSets])
	if len(r.sets) != MaxRegionSets || last.slot != 0 {
		t.Fatalf("table of %d rows, last page slot %d", len(r.sets), last.slot)
	}
	if !panics(func() { a.NewPageSet("extra", []PageID{last.ID}) }) {
		t.Fatal("a 256th set joined a full table")
	}
	extra := a.NewPageSet("extra", nil)
	if !panics(func() { extra.Add(last.ID) }) {
		t.Fatal("Add put a 256th set in a full table")
	}
	if len(r.sets) != MaxRegionSets || last.slot != 0 || extra.Len() != 0 || extra.Version() != 0 {
		t.Fatalf("refused joins left a %d-row table, slot %d, set of %d (version %d)",
			len(r.sets), last.slot, extra.Len(), extra.Version())
	}
	checkRegionTable(t, r)
	// The sets already in the table still take pages; the first free
	// row takes the new set.
	sets[2].Remove(0)
	sets[1].Add(pages[2])
	checkRegionTable(t, r)
	sets[0].Remove(0)
	extra.Add(last.ID)
	a.SetTier(last, TierNVM)
	if a.SetOf(last) != extra || extra.Count(TierNVM) != 1 || last.Slot() != 1 {
		t.Fatalf("after a row freed: page in %v (slot %d), extra counts %v", a.SetOf(last), last.Slot(), extra.counts)
	}
	checkRegionTable(t, r)
	want := a.MetadataBytes()
	a.Unmap(r)
	if r.sets != nil {
		t.Fatalf("unmapped region keeps %d table rows", len(r.sets))
	}
	if got := a.MetadataBytes(); got >= want {
		t.Fatalf("MetadataBytes %d after unmap, %d before", got, want)
	}
}

// vmState is a copy of everything a set operation may change: each
// page's slot and tier, each region's set table, and each set's members,
// counts and Version.
type vmState struct {
	slots    []uint8
	tiers    []Tier
	rows     [][]setEntry
	members  [][]PageID
	counts   []tierCounts
	versions []uint64
}

func snapshot(pages []*Page, regions []*Region, sets []*PageSet) vmState {
	var st vmState
	for _, p := range pages {
		st.slots = append(st.slots, p.slot)
		st.tiers = append(st.tiers, p.Tier)
	}
	for _, r := range regions {
		st.rows = append(st.rows, slices.Clone(r.sets))
	}
	for _, s := range sets {
		st.members = append(st.members, slices.Clone(s.ids))
		st.counts = append(st.counts, s.counts)
		st.versions = append(st.versions, s.version)
	}
	return st
}

func (st vmState) equal(o vmState) bool {
	return slices.Equal(st.slots, o.slots) && slices.Equal(st.tiers, o.tiers) &&
		slices.EqualFunc(st.rows, o.rows, slices.Equal) &&
		slices.EqualFunc(st.members, o.members, slices.Equal) &&
		slices.Equal(st.counts, o.counts) && slices.Equal(st.versions, o.versions)
}

// TestPageSetSlotsMatchPointerModel applies seeded random NewPageSet,
// Add, Remove and SetTier sequences over two regions, with sets that
// span both, to the slot representation and to a pointer model (each
// page's one set, or nil). A NewPageSet or Add that would put a page in
// a second set, including a page listed twice, must panic and leave
// every page, table and set as it was. After every step each page's Set
// matches the model and every set's tier counts match a recount of its
// members; after one region is unmapped every set holds exactly its
// members in the other.
func TestPageSetSlotsMatchPointerModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		a := NewAddressSpace(2 * sim.MB)
		regions := []*Region{a.Map("r0", 24*2*sim.MB), a.Map("r1", 24*2*sim.MB)}
		var pages []*Page
		for _, r := range regions {
			for _, id := range r.AllPages() {
				pages = append(pages, a.Page(id))
			}
		}
		model := make(map[*Page]*PageSet, len(pages))
		var sets []*PageSet
		check := func(step int, what string) {
			t.Helper()
			for _, p := range pages {
				if got, want := a.SetOf(p), model[p]; got != want {
					t.Fatalf("seed %d step %d (%s): page %d in %v, model %v", seed, step, what, p.ID, got, want)
				}
			}
			for _, s := range sets {
				var c tierCounts
				for _, id := range s.IDs() {
					c[a.Page(id).Tier]++
				}
				if c != s.counts {
					t.Fatalf("seed %d step %d (%s): set %s counts %v, recount %v", seed, step, what, s.Name, s.counts, c)
				}
			}
			for _, r := range regions {
				checkRegionTable(t, r)
			}
		}
		// refused runs op, which the model says must panic, and checks
		// that it did and changed nothing.
		refused := func(step int, what string, op func()) {
			t.Helper()
			before := snapshot(pages, regions, sets)
			if !panics(op) {
				t.Fatalf("seed %d step %d (%s): a second membership did not panic", seed, step, what)
			}
			if !before.equal(snapshot(pages, regions, sets)) {
				t.Fatalf("seed %d step %d (%s): the refused operation changed state", seed, step, what)
			}
		}
		free := func() *Page {
			for {
				if p := pages[rng.Intn(len(pages))]; model[p] == nil {
					return p
				}
			}
		}
		for step := 0; step < 400; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op == 0 || len(sets) == 0:
				n := rng.Intn(6)
				members := make([]PageID, n)
				twice := false
				seen := map[*Page]bool{}
				for i := range members {
					p := free()
					if rng.Intn(8) == 0 { // any page: maybe in a set, maybe listed twice
						p = pages[rng.Intn(len(pages))]
					}
					twice = twice || seen[p] || model[p] != nil
					seen[p] = true
					members[i] = p.ID
				}
				name := fmt.Sprint("s", len(sets))
				if what = "new " + name; twice {
					refused(step, what, func() { a.NewPageSet(name, members) })
					continue
				}
				s := a.NewPageSet(name, members)
				for _, id := range members {
					model[a.Page(id)] = s
				}
				sets = append(sets, s)
			case op <= 4:
				s := sets[rng.Intn(len(sets))]
				p := pages[rng.Intn(len(pages))]
				if what = "add to " + s.Name; model[p] != nil {
					refused(step, what, func() { s.Add(p.ID) })
					continue
				}
				s.Add(p.ID)
				model[p] = s
			case op <= 8:
				s := sets[rng.Intn(len(sets))]
				if s.Len() == 0 {
					continue
				}
				p := a.Page(s.Remove(rng.Intn(s.Len())))
				model[p] = nil
				what = "remove from " + s.Name
			default:
				p := pages[rng.Intn(len(pages))]
				a.SetTier(p, Tier(1+rng.Intn(3)))
				what = "set tier"
			}
			check(step, what)
		}
		want := make(map[*PageSet][]PageID)
		for _, s := range sets {
			for _, id := range s.IDs() {
				if regions[1].Contains(id) {
					want[s] = append(want[s], id)
				}
			}
		}
		a.Unmap(regions[0])
		for _, id := range regions[0].AllPages() {
			model[a.Page(id)] = nil
		}
		for _, s := range sets {
			if !slices.Equal(s.IDs(), want[s]) {
				t.Fatalf("seed %d: set %s holds %d pages after unmap, want its %d in r1", seed, s.Name, s.Len(), len(want[s]))
			}
		}
		check(-1, "unmap")
		if regions[0].sets != nil {
			t.Fatalf("seed %d: unmapped region keeps %d rows", seed, len(regions[0].sets))
		}
	}
}

// A set cut from two regions takes a row in each region's table, its
// counts follow moves in both, and unmapping one region drops its row and
// its members while the other region's stay, with their tiers counted.
func TestPageSetSpansRegions(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r0, r1 := a.Map("r0", 8*2*sim.MB), a.Map("r1", 8*2*sim.MB)
	s := a.NewPageSet("both", append(r0.AllPages()[:4], r1.AllPages()[:4]...))
	for _, r := range []*Region{r0, r1} {
		if got, refs := r.SlotSet(1); got != s || refs != 4 || r.NumSlots() != 1 {
			t.Fatalf("%s: row 1 = %v with %d refs, %d rows", r.Name, got, refs, r.NumSlots())
		}
		if k := r.PageAt(2).Slot(); k != 1 {
			t.Fatalf("%s: page 2 slot %d, want 1", r.Name, k)
		}
	}
	a.SetTier(r0.PageAt(1), TierDRAM)
	a.SetTier(r1.PageAt(3), TierNVM)
	a.SetTier(r1.PageAt(0), TierDRAM)
	if s.Count(TierDRAM) != 2 || s.Count(TierNVM) != 1 || s.Count(TierNone) != 5 {
		t.Fatalf("counts after moves in both regions: %v", s.counts)
	}
	before, version := a.MetadataBytes(), s.Version()
	a.Unmap(r0)
	if !slices.Equal(s.IDs(), r1.AllPages()[:4]) {
		t.Fatalf("after unmapping r0 the set holds %d pages, want r1's first 4 in order", s.Len())
	}
	if s.Count(TierDRAM) != 1 || s.Count(TierNVM) != 1 || s.Count(TierNone) != 2 {
		t.Fatalf("after unmapping r0: counts %v", s.counts)
	}
	if s.Version() != version+4 {
		t.Fatalf("unmap moved Version by %d, want 4 (one per page dropped)", s.Version()-version)
	}
	if r0.NumSlots() != 0 || r0.sets != nil || r1.NumSlots() != 1 {
		t.Fatalf("rows after unmap: r0 %d, r1 %d", r0.NumSlots(), r1.NumSlots())
	}
	if got, want := before-a.MetadataBytes(), int64(unsafe.Sizeof(setEntry{})); got != want {
		t.Fatalf("unmap freed %d metadata bytes, want the %d of r0's table row", got, want)
	}
	s.Add(r0.PageID(5)) // a stale page rejoining takes a fresh row
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
	s := a.NewPageSet("hot", r.AllPages()[:8])
	for i, id := range r.AllPages() {
		a.SetTier(a.Page(id), Tier(i%2+1))
	}
	s.Remove(0)
	a.Unmap(r)
	if a.health != nil {
		t.Fatalf("fault-free space has a frame-health table of %d entries", len(a.health))
	}
}

// ShuffledPages is rng.Perm applied to AllPages, with the same draws:
// out[k] == AllPages()[perm[k]], both generators end in step, and a set
// built from the result keeps that member order.
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
					t.Fatalf("n=%d seed=%d: out[%d] is page %d, want page %d", n, seed, k, got[k], all[i])
				}
			}
			s := a.NewPageSet("shuffled", got)
			for k, i := range perm {
				if s.IDs()[k] != all[i] || s.Page(k) != r.PageAt(i) {
					t.Fatalf("n=%d seed=%d: set member %d is page %d, want page %d", n, seed, k, s.IDs()[k], all[i])
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
// and set slots stay right through Remove and Add.
func TestNewPageSetAdoptsSlice(t *testing.T) {
	a := NewAddressSpace(2 * sim.MB)
	r := a.Map("heap", 17*2*sim.MB)
	pages := r.AllPages()
	for i, id := range pages {
		a.SetTier(a.Page(id), Tier(i%2+1))
	}
	front := a.NewPageSet("front", pages[:6])
	back := a.NewPageSet("back", pages[6:16])
	if &front.IDs()[0] != &pages[0] || &back.IDs()[0] != &pages[6] {
		t.Fatal("NewPageSet copied its slice")
	}
	if cap(front.IDs()) != 6 {
		t.Fatalf("front capacity %d, want 6", cap(front.IDs()))
	}
	want := append([]PageID(nil), pages[6:16]...)
	extra := r.PageID(16)
	front.Add(extra)
	for i, id := range back.IDs() {
		if id != want[i] {
			t.Fatalf("Add to front overwrote back member %d", i)
		}
	}
	if front.Len() != 7 || front.IDs()[6] != extra {
		t.Fatalf("front after Add: len %d", front.Len())
	}
	// The sets own the ID arrays now, so name the pages through the
	// region.
	p0, p9 := r.PageAt(0), r.PageAt(9)
	front.Remove(0) // p0; extra moves into its slot
	back.Remove(3)  // p9
	back.Add(p0.ID)
	a.SetTier(p9, TierDRAM)           // in no set now
	a.SetTier(p0, TierNVM)            // in back only
	a.SetTier(a.Page(extra), TierNVM) // in front
	for _, s := range []*PageSet{front, back} {
		var counts tierCounts
		for _, id := range s.IDs() {
			p := a.Page(id)
			counts[p.Tier]++
			if a.SetOf(p) != s {
				t.Fatalf("set %s member %d lacks its set slot", s.Name, r.Index(id))
			}
		}
		if counts != s.counts {
			t.Fatalf("set %s counts %v, recount %v", s.Name, s.counts, counts)
		}
	}
	if s := a.SetOf(p9); s != nil {
		t.Fatalf("removed page still in set %s", s.Name)
	}
	if s := a.SetOf(p0); s != back {
		t.Fatalf("page moved from front to back is in %v", s)
	}
}
