// Package vm is the virtual-memory substrate of the simulator: virtual
// address regions, per-page metadata (tier placement, migration and
// write-protect state, frame health), page sets for describing workload
// traffic, a page-table scan-time model calibrated to the paper's Figure 3,
// and a TLB-shootdown cost model.
//
// The real HeMem registers anonymous mmap ranges with userfaultfd and backs
// them with DAX files; here a Region plays the role of such a managed
// range, and tier managers receive fault-like callbacks when pages are
// first touched.
package vm

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/tieredmem/hemem/internal/sim"
)

// Tier identifies where a page currently resides. The tier set is
// fixed: TierNone plus the four memory kinds below, named by one literal
// table. TierID is the index-flavoured alias used by table-keyed APIs
// (built-in device models, per-tier fault counters, free targets).
type Tier int8

// TierID is an alias for Tier, used where a value is a table index rather
// than a residency tag.
type TierID = Tier

const (
	TierNone Tier = iota // not yet backed (never touched)
	TierDRAM
	TierNVM
	// TierDisk is the optional slowest tier: pages swapped out to a
	// block device (§3.4's "Swapping" discussion).
	TierDisk
	// TierCXL is a CXL-attached memory expander: slower than DRAM,
	// faster than NVM, with symmetric read/write bandwidth.
	TierCXL
)

// MaxTiers bounds the tier IDs. Fixed-size per-tier arrays (occupancy
// and fault counters, migration edge counts) are sized by it so the
// structs that embed them stay comparable.
const MaxTiers = 8

// tierNames is the tier set's name column; the index is the TierID.
var tierNames = [...]string{
	TierNone: "none",
	TierDRAM: "DRAM",
	TierNVM:  "NVM",
	TierDisk: "disk",
	TierCXL:  "CXL",
}

// String returns the tier's name. A value outside the tier set prints
// as "tier(<n>)" rather than silently aliasing a real one.
func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// PageID is a global page index within an AddressSpace.
type PageID int32

// Page is the metadata for one virtual page. HeMem's prototype tracks at
// huge-page (2 MB) granularity; the page size is a property of the
// AddressSpace.
//
// The struct is packed to 8 bytes, the stride of every whole-region walk
// (auditor, idlepage pass), and holds no pointer, so the chunks it lives
// in are noscan: the garbage collector never reads them. Everything else
// is derived from the ID through the AddressSpace: the page's region
// (RegionOf), its index within it (Region.Index), and its one set
// membership, a one-byte slot into the region's set table (SetOf). State
// that only faulted pages carry (remaps, correctable errors) lives in the
// AddressSpace's frame-health table.
type Page struct {
	ID PageID

	Tier Tier

	// flags holds pageMaterialized and pageMigrating.
	flags uint8

	// slot names the page set the page belongs to: value k names row k-1
	// of the region's set table, 0 names no set. A page is in at most one
	// set (NewPageSet and Add panic on a second), so building
	// million-page sets allocates nothing per page.
	slot uint8

	// AuditMark is the invariant auditor's private mark: during an audit,
	// the number of migration-queue entries for this page, saturating at
	// 255; zero at all other times. Nothing else reads or writes it.
	AuditMark uint8
}

// Page flags.
const (
	// pageMaterialized marks a slot PageAt has handed out: its ID is set
	// and it counts toward TouchedPages. Chunk slots without it are
	// untouched pages (or the last chunk's slots past the region's end).
	pageMaterialized uint8 = 1 << iota
	// pageMigrating marks a page whose contents are being copied between
	// tiers; writes to it stall (userfaultfd write-protection, §3.2).
	pageMigrating
)

// Materialized reports whether the page's metadata has been handed out
// by PageAt. Whole-region observers walking Chunk skip slots without it.
func (p *Page) Materialized() bool { return p.flags&pageMaterialized != 0 }

// Migrating reports whether the page is write-protected for a copy
// between tiers.
func (p *Page) Migrating() bool { return p.flags&pageMigrating != 0 }

// SetMigrating sets or clears the page's migration write protection.
func (p *Page) SetMigrating(on bool) {
	if on {
		p.flags |= pageMigrating
	} else {
		p.flags &^= pageMigrating
	}
}

// Slot returns the page's set slot: 0 for no set, k for
// Region.SlotSet(k). Callers that cache per-set results key on
// (region, Slot()).
func (p *Page) Slot() uint8 { return p.slot }

// MaxRegionSets is how many page sets can hold pages of one region: the
// rows of its set table that a one-byte slot value can name.
const MaxRegionSets = math.MaxUint8

// setEntry is one row of a region's set table: a set some of the
// region's pages belong to, and how many page slots name it. A row whose
// last slot is cleared is freed (set nil) for reuse.
type setEntry struct {
	set  *PageSet
	refs int32
}

// checkJoin panics unless p, one of r's pages, may join s: p must be in
// no set, and r's set table must be able to name s. It changes nothing.
func (r *Region) checkJoin(p *Page, s *PageSet) {
	if k := p.slot; k != 0 {
		panic(r.joinTwice(p, r.sets[k-1].set, s))
	}
	if !r.canName(s) {
		panic(fmt.Sprintf("vm: set %q cannot join the set table of %s: all %d rows name other sets",
			s.Name, r.Name, MaxRegionSets))
	}
}

// joinTwice is the panic message for r's page p, a member of q, joining
// s.
func (r *Region) joinTwice(p *Page, q, s *PageSet) string {
	return fmt.Sprintf("vm: page %d of %s is in set %q, cannot join set %q (a page is in at most one set)",
		p.ID, r.Name, q.Name, s.Name)
}

// addSet records the membership of r's page p in s; checkJoin has
// passed.
func (r *Region) addSet(p *Page, s *PageSet) {
	k := r.slotOf(s)
	p.slot = k
	r.sets[k-1].refs++
}

// removeSet clears the membership of r's page p in s.
func (r *Region) removeSet(p *Page, s *PageSet) {
	if k := p.slot; k != 0 && r.sets[k-1].set == s {
		p.slot = 0
		r.unref(k)
	}
}

// SetTier moves page p to tier t, maintaining the occupancy counters of
// its region, of the address space, of the page set that contains it and
// of the tenant charged for it.
func (a *AddressSpace) SetTier(p *Page, t Tier) {
	if p.Tier != t {
		a.RegionOf(p.ID).setTier(p, t)
	}
}

// setTier is SetTier for r's page p.
func (r *Region) setTier(p *Page, t Tier) {
	r.counts.bump(p.Tier, t)
	r.space.counts.bump(p.Tier, t)
	if k := p.slot; k != 0 {
		r.sets[k-1].set.bump(p.Tier, t)
	}
	if o := r.owner; o != TenantNone {
		r.space.bumpTenant(o, p.Tier, t)
	}
	p.Tier = t
}

// tierCounts is a per-tier page count, indexed by TierID.
type tierCounts [MaxTiers]int

// bump moves one page's worth of occupancy from tier `from` to tier `to`.
func (c *tierCounts) bump(from, to Tier) {
	c[from]--
	c[to]++
}

// Page metadata is materialized in fixed-size chunks so that terabyte
// regions cost memory proportional to the pages actually touched, not the
// mapped size. A chunk is a value array: page pointers handed out by
// PageAt stay stable for the life of the region. A chunk is 32 pages of
// 8 bytes, exactly 256 bytes: a size class of its own, and, holding no
// pointer, a noscan object with no allocation header, so the allocator
// charges it exactly its size (TestPageChunkAllocation) and the garbage
// collector never scans it.
const (
	chunkShift = 5
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

type pageChunk [chunkPages]Page

// Region is a contiguous virtual address range created by an (intercepted)
// mmap call. Page metadata is materialized lazily on first touch (tracker
// sample, migration, fault, or explicit access through PageAt); untouched
// pages exist only as the TierNone residue of the occupancy counters.
type Region struct {
	// ID is the region's dense index within its AddressSpace; managers
	// use it to keep per-region state in slices instead of pointer maps.
	ID       int
	Name     string
	Start    int64
	PageSize int64

	n    int    // pages in the region
	base PageID // global ID of page 0
	// chunks holds the lazily materialized page slabs; a nil entry means
	// no page in that 32-page window has ever been touched.
	chunks  []*pageChunk
	touched int
	space   *AddressSpace

	// counts holds the region's pages per tier. The TierNone count
	// includes unmaterialized pages.
	counts tierCounts

	// owner is the tenant this region is charged to, or TenantNone for
	// untenanted regions (the default: Map never sets it). Owned regions
	// mirror every tier transition into the address space's per-tenant
	// occupancy table (see tenant.go).
	owner TenantID

	// sets is the set table that page slots index (see Page): row k-1
	// is the set slot value k names. A set spanning regions has a row in
	// each. Rows are freed when their last slot is cleared, and free
	// rows at the end are trimmed, so the table holds only live sets.
	sets []setEntry
}

// canName reports whether r's set table names s or has a row free for
// it.
func (r *Region) canName(s *PageSet) bool {
	if len(r.sets) < MaxRegionSets {
		return true
	}
	for _, e := range r.sets {
		if e.set == nil || e.set == s {
			return true
		}
	}
	return false
}

// slotOf returns the slot value that names s in r's set table,
// registering s in a free row (with no slot naming it yet) on first use;
// canName(s) must hold. The set remembers its last (region, slot) pair,
// so building a large set searches the table once, not per page.
func (r *Region) slotOf(s *PageSet) uint8 {
	if k := s.slot; s.slotRegion == r && int(k) <= len(r.sets) && r.sets[k-1].set == s {
		return k
	}
	free := -1
	for i := range r.sets {
		switch r.sets[i].set {
		case s:
			s.slotRegion, s.slot = r, uint8(i+1)
			return s.slot
		case nil:
			if free < 0 {
				free = i
			}
		}
	}
	if free < 0 {
		r.sets = append(r.sets, setEntry{})
		free = len(r.sets) - 1
	}
	r.sets[free].set = s
	s.slotRegion, s.slot = r, uint8(free+1)
	return s.slot
}

// unref clears one page slot's reference to row k, freeing the row
// when it was the last.
func (r *Region) unref(k uint8) {
	if e := &r.sets[k-1]; e.refs > 1 {
		e.refs--
		return
	}
	r.freeRow(k)
}

// freeRow empties row k and trims the table's free tail.
func (r *Region) freeRow(k uint8) {
	r.sets[k-1] = setEntry{}
	n := len(r.sets)
	for n > 0 && r.sets[n-1].set == nil {
		n--
	}
	r.sets = r.sets[:n]
}

// NumSlots returns the length of the region's set table: the slot values
// 1..NumSlots() may name a set (see SlotSet).
func (r *Region) NumSlots() int { return len(r.sets) }

// SlotSet returns the set that slot value k names in this region's
// table, and how many of the region's page slots the table records as
// naming it; nil and 0 for a free row, for 0, and for any k past the
// table.
func (r *Region) SlotSet(k uint8) (*PageSet, int) {
	if k == 0 || int(k) > len(r.sets) {
		return nil, 0
	}
	e := r.sets[k-1]
	return e.set, int(e.refs)
}

// Size returns the region length in bytes.
func (r *Region) Size() int64 { return int64(r.n) * r.PageSize }

// NumPages returns the number of pages the region spans (touched or not).
func (r *Region) NumPages() int { return r.n }

// PageID returns the global ID of the page at index i.
func (r *Region) PageID(i int) PageID { return r.base + PageID(i) }

// Index returns the index within the region of the page with global ID
// id; Contains(id) must hold.
func (r *Region) Index(id PageID) int { return int(id - r.base) }

// Contains reports whether the page with global ID id is one of the
// region's.
func (r *Region) Contains(id PageID) bool { return id >= r.base && int(id-r.base) < r.n }

// TouchedPages returns how many of the region's pages have materialized
// metadata.
func (r *Region) TouchedPages() int { return r.touched }

// PageAt returns the page at index i, materializing its metadata on first
// touch. The returned pointer is stable for the life of the region.
func (r *Region) PageAt(i int) *Page {
	ci := i >> chunkShift
	c := r.chunks[ci]
	if c == nil {
		c = new(pageChunk)
		r.chunks[ci] = c
	}
	p := &c[i&chunkMask]
	if p.flags&pageMaterialized == 0 {
		p.ID, p.flags = r.base+PageID(i), pageMaterialized
		r.touched++
		r.space.touched++
	}
	return p
}

// Peek returns the page at index i if its metadata has materialized, nil
// otherwise. An unmaterialized page is by definition in TierNone with no
// set memberships, so observers can skip it.
func (r *Region) Peek(i int) *Page {
	c := r.chunks[i>>chunkShift]
	if c == nil {
		return nil
	}
	p := &c[i&chunkMask]
	if p.flags&pageMaterialized == 0 {
		return nil
	}
	return p
}

// EachPage calls f for every materialized page, in ascending index order.
// Untouched pages are skipped: they are in TierNone and belong to no set,
// so occupancy observers lose nothing.
func (r *Region) EachPage(f func(*Page)) {
	for _, c := range r.chunks {
		if c == nil {
			continue
		}
		for j := range c {
			if p := &c[j]; p.flags&pageMaterialized != 0 {
				f(p)
			}
		}
	}
}

// NumChunks returns the number of 32-page metadata windows the region
// spans; Chunk indexes them.
func (r *Region) NumChunks() int { return len(r.chunks) }

// Chunk returns the 32 page slots of metadata window ci (pages ci*32
// onwards), or nil if no page in it has materialized. Slots of untouched
// pages, including any past the region's end in the last window, are not
// Materialized. Whole-region observers that visit every materialized page
// use it in place of an EachPage closure.
func (r *Region) Chunk(ci int) []Page {
	if c := r.chunks[ci]; c != nil {
		return c[:]
	}
	return nil
}

// MaterializeAll forces metadata for every page in the region — the dense
// baseline against which the sparse path is measured, and what Warm-style
// whole-region placement naturally produces.
func (r *Region) MaterializeAll() {
	for i := 0; i < r.n; i++ {
		r.PageAt(i)
	}
}

// AllPages returns a fresh slice of every page's ID in index order,
// materializing the whole region. Workloads that address their entire
// mapping in order use this (random splits use ShuffledPages);
// sparse-friendly workloads should address windows through PageAt
// instead.
func (r *Region) AllPages() []PageID {
	out := make([]PageID, r.n)
	for i := range out {
		out[i] = r.PageAt(i).ID
	}
	return out
}

// Count returns how many of the region's pages are in tier t.
func (r *Region) Count(t Tier) int { return r.counts[t] }

// Frac returns the fraction of the region's pages in tier t.
func (r *Region) Frac(t Tier) float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.counts[t]) / float64(r.n)
}

// Bytes returns the bytes of the region resident in tier t.
func (r *Region) Bytes(t Tier) int64 { return int64(r.counts[t]) * r.PageSize }

// ShuffledPages returns every page's ID in a random order, materializing
// the whole region in index order as AllPages does. It runs rng.Perm's
// inside-out shuffle over the IDs themselves, so with the same draws
// out[k] == r.PageID(perm[k]) for perm = rng.Perm(r.NumPages()), and no
// index permutation is allocated. Workloads cut their random hot/cold
// splits as consecutive sub-slices of the result, each handed to
// NewPageSet.
func (r *Region) ShuffledPages(rng *sim.Rand) []PageID {
	out := make([]PageID, r.n)
	for i := range out {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = r.PageAt(i).ID
	}
	return out
}

// AsSet returns a PageSet covering the whole region (materializing it).
func (r *Region) AsSet() *PageSet { return r.space.NewPageSet(r.Name, r.AllPages()) }

func (r *Region) String() string {
	return fmt.Sprintf("%s[%d pages × %d]", r.Name, r.n, r.PageSize)
}

// PageSet is an arbitrary (possibly non-contiguous) set of pages used to
// describe workload traffic: e.g., GUPS' 16 GB hot set scattered through a
// 512 GB working set. Sets maintain per-tier occupancy so the machine can
// split a traffic component across devices in O(1). Members are PageIDs,
// 4 bytes each and no pointer, resolved through the set's address space.
type PageSet struct {
	Name    string
	space   *AddressSpace
	ids     []PageID
	counts  tierCounts // the set's pages per tier
	version uint64     // see Version

	// AuditMark is the invariant auditor's private mark: during an
	// audit, 1 + the set's index in the auditor's recount table if the
	// set is rate-tracked; zero at all other times. Nothing else reads or
	// writes it.
	AuditMark int32

	// slotRegion and slot cache the set's row in the last region whose
	// set table slotOf looked it up in.
	slotRegion *Region
	slot       uint8
}

// NewPageSet builds a set over the pages with the given IDs, materializing
// them, and registers the membership on each page. The set adopts the
// slice as its member array, without copying, so the caller must neither
// use nor mutate it afterwards. Its capacity is clipped to its length:
// the first Add past the end reallocates instead of writing into whatever
// follows in the caller's array, so sets cut as consecutive sub-slices of
// one array (ShuffledPages) stay independent.
//
// NewPageSet panics, changing nothing, if a page is already in a set or
// a page's region cannot name one more set (all of its set table's 255
// rows name other sets). A page listed twice panics too, after its
// earlier memberships are undone.
func (a *AddressSpace) NewPageSet(name string, ids []PageID) *PageSet {
	n := len(ids)
	s := &PageSet{Name: name, space: a, ids: ids[:n:n], version: uint64(n)}
	var r *Region
	for _, id := range ids {
		r = a.regionNear(r, id)
		r.checkJoin(r.pageOf(id), s)
	}
	for i, id := range ids {
		r = a.regionNear(r, id)
		p := r.pageOf(id)
		if p.slot != 0 {
			msg := r.joinTwice(p, s, s)
			for _, q := range ids[:i] {
				r = a.regionNear(r, q)
				r.removeSet(r.pageOf(q), s)
			}
			panic(msg)
		}
		s.counts[p.Tier]++
		r.addSet(p, s)
	}
	return s
}

// Add inserts the page with global ID id into the set, materializing it.
// It panics, as NewPageSet does and before changing anything, if the
// page is already in a set or its region's set table cannot name s.
func (s *PageSet) Add(id PageID) {
	r := s.space.RegionOf(id)
	p := r.pageOf(id)
	r.checkJoin(p, s)
	s.ids = append(s.ids, id)
	s.counts[p.Tier]++
	s.version++
	r.addSet(p, s)
}

// Remove deletes the page at index i (swap-with-last; order is not
// preserved), unregisters the set from it, and returns its ID.
func (s *PageSet) Remove(i int) PageID {
	id := s.ids[i]
	last := len(s.ids) - 1
	s.ids[i] = s.ids[last]
	s.ids = s.ids[:last]
	r := s.space.RegionOf(id)
	p := r.pageOf(id)
	s.counts[p.Tier]--
	s.version++
	r.removeSet(p, s)
	return id
}

// bump moves one member page's occupancy from tier from to tier to.
func (s *PageSet) bump(from, to Tier) {
	s.counts.bump(from, to)
	s.version++
}

// Version returns a counter that changes whenever the set's length or any
// of its tier counts changes (Add, Remove, or a member's SetTier). Anything
// derived only from Len, Count, Frac and Bytes can be cached under it.
func (s *PageSet) Version() uint64 { return s.version }

// Len returns the number of pages in the set.
func (s *PageSet) Len() int { return len(s.ids) }

// Page returns the i-th page.
func (s *PageSet) Page(i int) *Page { return s.space.Page(s.ids[i]) }

// IDs returns the member array (callers must not mutate it).
func (s *PageSet) IDs() []PageID { return s.ids }

// Count returns how many pages of the set are in tier t.
func (s *PageSet) Count(t Tier) int { return s.counts[t] }

// Frac returns the fraction of the set's pages in tier t. Pages still in
// TierNone count toward neither.
func (s *PageSet) Frac(t Tier) float64 {
	if len(s.ids) == 0 {
		return 0
	}
	return float64(s.counts[t]) / float64(len(s.ids))
}

// Bytes returns the set's bytes: its pages at the address space's page
// size.
func (s *PageSet) Bytes() int64 { return int64(len(s.ids)) * s.space.PageSize }

// AddressSpace owns all regions and pages of one simulated process.
type AddressSpace struct {
	PageSize int64
	Regions  []*Region

	// counts holds the pages of every span per tier, kept by SetTier:
	// one add per transition, so a tier's resident pages are an O(1)
	// read. The TierNone count includes unmaterialized and unmapped pages.
	counts tierCounts

	// spans is every region ever mapped, in PageID order: RegionOf
	// searches it. It is append-only: an unmapped region keeps its span
	// so stale PageIDs in flight still resolve (to a TierNone page with
	// no sets).
	spans         []*Region
	numPages      int
	touched       int
	nextVA        int64
	nextRegionID  int
	retiredFrames int

	// tenants holds one per-tier occupancy count per tenant ID ever
	// charged in this space (index id-1; see tenant.go). Like the
	// per-region counts, each TierNone slot includes unmaterialized pages
	// of owned regions.
	tenants []tierCounts

	// health is the frame-health table: an entry only for pages that took
	// a media fault, so a fault-free run keeps it empty and every Page
	// stays free of the fields.
	health map[PageID]frameHealth
}

// frameHealth is one faulted page's error history.
type frameHealth struct {
	// remaps counts how many times the page was remapped to a fresh
	// physical frame after its frame was retired (RetireFrame).
	remaps int32
	// ce counts ECC-corrected media errors absorbed by the frame now
	// backing the page; RetireFrame zeroes it with the frame.
	ce int32
}

// NewAddressSpace creates an empty address space with the given page size
// (HeMem's prototype uses 2 MB huge pages).
func NewAddressSpace(pageSize int64) *AddressSpace {
	if pageSize <= 0 {
		panic("vm: page size must be positive")
	}
	return &AddressSpace{PageSize: pageSize, nextVA: 1 << 40}
}

// Map creates a region of the given size (rounded up to whole pages),
// modelling an intercepted mmap of anonymous memory. All pages start in
// TierNone; the active tier manager places them on first touch.
//
// PageIDs and page indices are int32, so Map panics, before allocating
// anything, if the space would pass math.MaxInt32 pages.
func (a *AddressSpace) Map(name string, size int64) *Region {
	pages := (size + a.PageSize - 1) / a.PageSize
	if pages > math.MaxInt32-int64(a.numPages) {
		panic(fmt.Sprintf("vm: mapping %q (%d pages) would take the address space past %d pages, the PageID limit",
			name, pages, math.MaxInt32))
	}
	n := int(pages)
	r := &Region{ID: a.nextRegionID, Name: name, Start: a.nextVA, PageSize: a.PageSize}
	a.nextRegionID++
	r.n = n
	r.base = PageID(a.numPages)
	r.space = a
	// Page metadata materializes lazily in 32-page chunks (see PageAt);
	// mapping a terabyte costs one pointer per chunk window, not a Page
	// per 2 MB.
	r.chunks = make([]*pageChunk, (n+chunkPages-1)/chunkPages)
	r.counts[TierNone] = n
	a.counts[TierNone] += n
	a.spans = append(a.spans, r)
	a.numPages += n
	a.nextVA += int64(n) * a.PageSize
	a.Regions = append(a.Regions, r)
	return r
}

// PagesFor returns how many pages of pageSize bytes Map gives a region
// of size bytes: size rounded up to whole pages.
func PagesFor(size, pageSize int64) int64 {
	n := size / pageSize
	if size%pageSize != 0 {
		n++
	}
	return n
}

// CheckMapping returns an error if pageSize is not positive, or if
// regions of the given sizes, mapped into one address space of pageSize
// pages, would take it past math.MaxInt32 pages, the PageID limit at
// which Map panics. Workload configs validate their mappings with it.
func CheckMapping(pageSize int64, sizes ...int64) error {
	if pageSize <= 0 {
		return fmt.Errorf("page size %d must be positive", pageSize)
	}
	var total int64
	for _, size := range sizes {
		n := PagesFor(size, pageSize)
		if n > math.MaxInt32-total {
			return fmt.Errorf("mapping %v bytes takes more than %d pages of %d bytes, the PageID limit",
				sizes, math.MaxInt32, pageSize)
		}
		total += n
	}
	return nil
}

// Unmap removes region r from the address space, modelling munmap of the
// whole range. The pages keep their IDs (stale PageIDs in flight resolve
// to a page in TierNone with no sets) but leave every page set they were
// in; the active tier manager must have released its own tracking first
// (see machine.Machine.Unmap).
func (a *AddressSpace) Unmap(r *Region) {
	owner := r.owner
	// Every set holding some of r's pages has a row in r's table: drop
	// r's pages from each one's member list in a single pass.
	for _, e := range r.sets {
		if e.set != nil {
			e.set.dropRegion(r)
		}
	}
	r.sets = nil
	r.EachPage(func(p *Page) {
		p.slot = 0
		if p.Tier != TierNone {
			r.setTier(p, TierNone)
		}
	})
	if owner != TenantNone {
		// Every page is back in TierNone now (touched pages just moved
		// there, untouched ones never left), so the tenant's whole charge
		// for this region sits in the TierNone slot. Drop it, and clear
		// the owner so stale PageIDs resolving into the dead region can
		// never bump tenant counters again.
		a.chargeTenant(owner, TierNone, -r.n)
		r.owner = TenantNone
	}
	for id := range a.health {
		if r.Contains(id) {
			delete(a.health, id)
		}
	}
	for i, reg := range a.Regions {
		if reg == r {
			a.Regions = append(a.Regions[:i], a.Regions[i+1:]...)
			break
		}
	}
}

// dropRegion removes every page of r from the set, keeping the order of
// the rest, with the counts and Version that removing them one by one
// would leave. The pages' slots are the caller's to clear.
func (s *PageSet) dropRegion(r *Region) {
	kept := s.ids[:0]
	for _, id := range s.ids {
		if r.Contains(id) {
			s.counts[r.pageOf(id).Tier]--
			s.version++
		} else {
			kept = append(kept, id)
		}
	}
	s.ids = kept
}

// RegionOf returns the region the page with global ID id belongs to. IDs
// of unmapped regions still resolve, to the unmapped region.
func (a *AddressSpace) RegionOf(id PageID) *Region {
	lo, hi := 0, len(a.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if r := a.spans[mid]; id >= r.base+PageID(r.n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a.spans[lo]
}

// regionNear returns r if it holds id, and RegionOf(id) otherwise: the
// lookup for a run of IDs that mostly fall in one region.
func (a *AddressSpace) regionNear(r *Region, id PageID) *Region {
	if r != nil && r.Contains(id) {
		return r
	}
	return a.RegionOf(id)
}

// pageOf returns r's page with global ID id, materializing it.
func (r *Region) pageOf(id PageID) *Page { return r.PageAt(r.Index(id)) }

// Page returns the page with the given global ID, materializing its
// metadata if needed. IDs from unmapped regions still resolve (the page is
// in TierNone with no sets).
func (a *AddressSpace) Page(id PageID) *Page { return a.RegionOf(id).pageOf(id) }

// SetOf returns the page set p belongs to, or nil.
func (a *AddressSpace) SetOf(p *Page) *PageSet {
	if k := p.slot; k != 0 {
		return a.RegionOf(p.ID).sets[k-1].set
	}
	return nil
}

// Count returns how many pages of the address space are resident in tier
// t: the sum of every mapped region's Count(t), kept incrementally.
func (a *AddressSpace) Count(t Tier) int { return a.counts[t] }

// NumPages returns the total number of pages ever mapped (unmapped
// regions keep their IDs, so this never shrinks).
func (a *AddressSpace) NumPages() int { return a.numPages }

// TouchedPages returns how many pages across all spans (including
// unmapped ones) have materialized metadata.
func (a *AddressSpace) TouchedPages() int { return a.touched }

// MetadataBytes returns the deterministic footprint of the page metadata:
// materialized chunks, the per-region chunk-pointer and set tables, and
// the frame-health table's entries (key and value); map overhead
// excluded.
// It is an accounting figure (what the sparse representation pays for the
// pages touched so far), not a live heap measurement, so dense-vs-sparse
// comparisons are reproducible across runs and hosts. A materialized
// chunk counts its 32 pages in full; the allocator charges it exactly
// that, with no header or size-class slack (see pageChunk).
func (a *AddressSpace) MetadataBytes() int64 {
	const pageBytes = int64(unsafe.Sizeof(Page{}))
	const ptrBytes = int64(unsafe.Sizeof((*pageChunk)(nil)))
	const rowBytes = int64(unsafe.Sizeof(setEntry{}))
	const healthBytes = int64(unsafe.Sizeof(PageID(0)) + unsafe.Sizeof(frameHealth{}))
	total := int64(len(a.health)) * healthBytes
	for _, r := range a.spans {
		total += int64(len(r.chunks))*ptrBytes + int64(cap(r.sets))*rowBytes
		for _, c := range r.chunks {
			if c != nil {
				total += chunkPages * pageBytes
			}
		}
	}
	return total
}

// RetireFrame records that the physical frame backing p suffered an
// uncorrectable media error (or crossed the correctable-error retirement
// threshold) and was taken out of service: p is remapped to a fresh frame
// (the OS hwpoison/soft-offline path) and keeps its virtual address,
// tier, and set memberships. The fresh frame has a clean error history.
func (a *AddressSpace) RetireFrame(p *Page) {
	h := a.health[p.ID]
	h.remaps++
	h.ce = 0
	a.setHealth(p.ID, h)
	a.retiredFrames++
}

// NoteCorrectableError records one ECC-corrected media error on the frame
// backing p and returns the frame's count, which RetireFrame resets.
func (a *AddressSpace) NoteCorrectableError(p *Page) int {
	h := a.health[p.ID]
	h.ce++
	a.setHealth(p.ID, h)
	return int(h.ce)
}

// Remaps returns how many times p was remapped to a fresh frame.
func (a *AddressSpace) Remaps(p *Page) int { return int(a.health[p.ID].remaps) }

func (a *AddressSpace) setHealth(id PageID, h frameHealth) {
	if a.health == nil {
		a.health = make(map[PageID]frameHealth)
	}
	a.health[id] = h
}

// RetiredFrames returns how many physical frames were retired after
// uncorrectable errors.
func (a *AddressSpace) RetiredFrames() int { return a.retiredFrames }

// TotalBytes returns the bytes mapped across all regions.
func (a *AddressSpace) TotalBytes() int64 { return int64(a.numPages) * a.PageSize }

// ScanModel is the cost model for page-table access/dirty-bit scanning and
// the TLB shootdowns required when clearing bits (§2.3, Figure 3).
type ScanModel struct {
	// PTECost4K/2M/1G is the per-entry visit cost in ns. Smaller pages
	// mean more entries and a deeper table, so the per-entry cost rises
	// slightly while the entry count explodes.
	PTECost4K int64
	PTECost2M int64
	PTECost1G int64

	// ShootdownBatch is how many cleared entries share one TLB shootdown
	// (Linux batches invalidations); IPIStall is the per-shootdown stall
	// charged to every running thread.
	ShootdownBatch int
	IPIStall       int64
}

// DefaultScanModel returns the calibrated model: scanning 1 TB of 4 KB
// pages takes seconds (Figure 3), and clearing bits costs app threads
// roughly 15–20% of throughput when scans run back to back (Figure 8's "PT
// Scan" bar).
func DefaultScanModel() ScanModel {
	return ScanModel{
		PTECost4K:      12,
		PTECost2M:      11,
		PTECost1G:      10,
		ShootdownBatch: 2048,
		IPIStall:       4 * sim.Microsecond,
	}
}

// perPTE returns the per-entry cost for the given page size.
func (m ScanModel) perPTE(pageSize int64) int64 {
	switch {
	case pageSize >= sim.GB:
		return m.PTECost1G
	case pageSize >= 2*sim.MB:
		return m.PTECost2M
	default:
		return m.PTECost4K
	}
}

// ScanTime returns how long one full scan pass over capacity bytes of
// memory mapped at pageSize takes (Figure 3).
func (m ScanModel) ScanTime(capacity int64, pageSize int64) int64 {
	entries := capacity / pageSize
	if capacity%pageSize != 0 {
		entries++
	}
	return entries * m.perPTE(pageSize)
}

// ShootdownStall returns the stall in ns charged to each running thread
// when a scan pass visits and clears entriesScanned page-table entries.
// The kernel batches invalidations at a fixed entry interval as it scans,
// so the stall is proportional to the scanned range: with the default
// parameters it costs application threads ~16% of the scan duration — the
// overhead the paper's Figure 8 "PT Scan" bar measures at 18%.
func (m ScanModel) ShootdownStall(entriesScanned int) int64 {
	if entriesScanned <= 0 {
		return 0
	}
	shootdowns := (entriesScanned + m.ShootdownBatch - 1) / m.ShootdownBatch
	return int64(shootdowns) * m.IPIStall
}

// FaultCost is the modelled cost of one userfaultfd page-missing fault:
// kernel forwarding to the handler thread, zero-page mapping, and waking
// the faulting thread. The paper measures this overhead as negligible for
// its applications (one fault per page, ever); it matters only during
// warm-up.
const FaultCost = 4 * sim.Microsecond
