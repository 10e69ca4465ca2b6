package machine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// auditFixture is a small, clean, audited-state machine on a DRAM+NVM
// table: two admitted tenants owning fully faulted 32-page regions
// (tt1, tt2), an untenanted 128-page region with only its first 8 pages
// materialized (plain, so one chunk is nil), a rate-tracked set over
// tt1's first 16 pages (hot), which leave the tenant's own set for it, a
// mix of DRAM and NVM residency, and two
// in-flight migrations: tt1 page 30 promoting and tt2 page 20 demoting.
type auditFixture struct {
	m          *Machine
	t1, t2     *vm.Region
	plain      *vm.Region
	hot        *vm.PageSet
	promo, dem *vm.Page
}

func newAuditFixture(t *testing.T) *auditFixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Tiers = []TierDesc{
		{ID: vm.TierDRAM, Capacity: 256 * sim.MB},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	f := &auditFixture{}
	f.m = New(cfg, &nopManager{})
	tr := f.m.EnableTenants()
	var apps []*testTenantApp
	for i := 1; i <= 2; i++ {
		var spec TenantSpec
		spec.Name, spec.Class = fmt.Sprintf("tt%d", i), Gold
		_, res := tr.Admit(spec, func(id vm.TenantID) TenantApp {
			a := startTestTenant(f.m, id, 64*sim.MB).(*testTenantApp)
			apps = append(apps, a)
			return a
		})
		if res != Admitted {
			t.Fatalf("admit tt%d = %v", i, res)
		}
	}
	f.t1, f.t2 = apps[0].region, apps[1].region
	f.plain = f.m.AS.Map("plain", 256*sim.MB)
	f.m.TouchRange(f.plain, 0, 8)

	var hot []vm.PageID
	all := apps[0].comps[0].Set
	for i := all.Len() - 1; i >= 0; i-- {
		if f.t1.Index(all.IDs()[i]) < 16 {
			hot = append(hot, all.Remove(i))
		}
	}
	f.hot = f.m.AS.NewPageSet("hot", hot)
	f.m.Rates(f.hot)

	for i := 24; i < 32; i++ {
		f.m.AS.SetTier(f.t1.Peek(i), vm.TierNVM)
	}
	for i := 0; i < 8; i++ {
		f.m.AS.SetTier(f.t2.Peek(i), vm.TierNVM)
	}
	f.promo, f.dem = f.t1.Peek(30), f.t2.Peek(20)
	f.m.Migrator.Enqueue(f.promo, vm.TierDRAM)
	f.m.Migrator.Enqueue(f.dem, vm.TierNVM)
	if f.m.Migrator.QueueLen() != 2 {
		t.Fatalf("fixture queue holds %d migrations, want 2", f.m.Migrator.QueueLen())
	}
	if vs := f.m.Audit(); vs != nil {
		t.Fatalf("fixture is not clean: %v", vs)
	}
	return f
}

// enqueueRaw appends a migration request behind the Migrator's
// admission checks, the way a queue-corrupting bug would.
func (f *auditFixture) enqueueRaw(p *vm.Page, dst vm.Tier) {
	g := f.m.Migrator
	g.queue = append(g.queue, g.newReq(p, dst, false))
}

// auditRules returns the sorted, de-duplicated rule names in vs.
func auditRules(vs []AuditViolation) []string {
	seen := map[string]bool{}
	var rules []string
	for _, v := range vs {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			rules = append(rules, v.Rule)
		}
	}
	sort.Strings(rules)
	return rules
}

// checkViolations asserts that vs fires exactly the given rules and
// that each wanted "rule: detail" substring appears in exactly one
// violation.
func checkViolations(t *testing.T, vs []AuditViolation, rules []string, want []string) {
	t.Helper()
	sort.Strings(rules)
	if got := auditRules(vs); strings.Join(got, ",") != strings.Join(rules, ",") {
		t.Errorf("rules fired = %v, want %v", got, rules)
	}
	for _, w := range want {
		n := 0
		for _, v := range vs {
			if strings.Contains(v.String(), w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d violations match %q, want 1", n, w)
		}
	}
	if t.Failed() {
		for _, v := range vs {
			t.Logf("  %s", v)
		}
	}
}

// TestAuditCatalogue is the violation catalogue: for every rule Audit
// enforces, a crafted corruption of an otherwise clean machine must be
// reported under that rule's name with its diagnostic detail, and fire
// no rule that the corruption does not break.
func TestAuditCatalogue(t *testing.T) {
	const ps = 2 * sim.MB
	// Fixtures are deterministic: ref names the page IDs each case's
	// expected text mentions.
	ref := newAuditFixture(t)
	cases := []struct {
		name    string
		corrupt func(f *auditFixture)
		rules   []string
		want    []string
	}{
		{
			// A page moved without its counters: the region's occupancy
			// and the resident bytes both drift.
			name:    "region-counts/wrong-tier",
			corrupt: func(f *auditFixture) { f.plain.Peek(3).Tier = vm.TierNVM },
			rules:   []string{"region-counts", "used-conservation"},
			want: []string{
				"region-counts: plain: counter says 8 pages in DRAM, recount says 7",
				"region-counts: plain: counter says 0 pages in NVM, recount says 1",
			},
		},
		{
			name:    "region-counts/out-of-range-tier",
			corrupt: func(f *auditFixture) { f.plain.Peek(4).Tier = vm.Tier(vm.MaxTiers) },
			rules:   []string{"region-counts", "used-conservation"},
			want: []string{
				fmt.Sprintf("region-counts: plain: page %d has out-of-range tier %d", ref.plain.Peek(4).ID, vm.MaxTiers),
				"region-counts: plain: counter says 8 pages in DRAM, recount says 7",
			},
		},
		{
			// Two pages of tt1 swap tiers behind the counters: the region
			// recount (and so the tenant and resident tallies) still
			// balances, but the set holds only one of them.
			name: "set-counts",
			corrupt: func(f *auditFixture) {
				f.t1.Peek(2).Tier = vm.TierNVM
				f.t1.Peek(25).Tier = vm.TierDRAM
			},
			rules: []string{"set-counts"},
			want: []string{
				"set-counts: set hot: counter says 16 pages in DRAM, recount says 15",
				"set-counts: set hot: counter says 0 pages in NVM, recount says 1",
			},
		},
		{
			// A page's record is rebuilt without its set slot (from a
			// plain page of the same tier, in no set) while the set's
			// member list still holds it: the list and the slots
			// disagree. The recount through the slots misses the page,
			// and so does the table row's slot count.
			name: "set-counts/lost-back-pointer",
			corrupt: func(f *auditFixture) {
				p := f.t1.Peek(3)
				id := p.ID
				*p = *f.plain.Peek(0)
				p.ID = id
			},
			rules: []string{"set-counts"},
			want: []string{
				"set-counts: set hot: counter says 16 pages in DRAM, recount says 15",
				"set-counts: set hot: 15 pages point at it, its member list holds 16",
				"set-counts: tt1: 15 page slots name set-table row 2, the table counts 16",
			},
		},
		{
			name:    "migrating-queue/queued-unflagged",
			corrupt: func(f *auditFixture) { f.promo.SetMigrating(false) },
			rules:   []string{"migrating-queue"},
			want:    []string{fmt.Sprintf("migrating-queue: page %d queued NVM→DRAM without Migrating flag", ref.promo.ID)},
		},
		{
			name:    "migrating-queue/flagged-unqueued",
			corrupt: func(f *auditFixture) { f.plain.Peek(5).SetMigrating(true) },
			rules:   []string{"migrating-queue"},
			want:    []string{fmt.Sprintf("migrating-queue: page %d has Migrating flag but no queue entry", ref.plain.Peek(5).ID)},
		},
		{
			// A request lost behind the Migrator's back leaves its page
			// write-protected; the page was queued (and so seen by the
			// queue side) at the previous audit.
			name: "migrating-queue/flagged-dequeued",
			corrupt: func(f *auditFixture) {
				g := f.m.Migrator
				g.queue = append(g.queue[:0:0], g.queue[1:]...)
			},
			rules: []string{"migrating-queue", "used-conservation"},
			want:  []string{fmt.Sprintf("migrating-queue: page %d has Migrating flag but no queue entry", ref.promo.ID)},
		},
		{
			// Three entries for one page: reported once, with the count.
			// The extra in-flight charges also unbalance the books.
			name: "migrating-queue/queued-twice",
			corrupt: func(f *auditFixture) {
				f.enqueueRaw(f.promo, vm.TierDRAM)
				f.enqueueRaw(f.promo, vm.TierDRAM)
			},
			rules: []string{"migrating-queue", "used-conservation"},
			want:  []string{fmt.Sprintf("migrating-queue: page %d queued 3 times", ref.promo.ID)},
		},
		{
			// 300 entries for one page: the one-byte mark saturates
			// instead of wrapping, so the count is reported as a floor
			// and the page's Migrating flag still finds its entries.
			name: "migrating-queue/queued-past-the-mark",
			corrupt: func(f *auditFixture) {
				for range 299 {
					f.enqueueRaw(f.promo, vm.TierDRAM)
				}
			},
			rules: []string{"migrating-queue", "used-conservation"},
			want:  []string{fmt.Sprintf("migrating-queue: page %d queued at least 255 times", ref.promo.ID)},
		},
		{
			name: "migrating-queue/own-tier",
			corrupt: func(f *auditFixture) {
				p := f.plain.Peek(6)
				p.SetMigrating(true)
				f.enqueueRaw(p, vm.TierDRAM)
			},
			rules: []string{"migrating-queue"},
			want:  []string{fmt.Sprintf("migrating-queue: page %d queued to its current tier DRAM", ref.plain.Peek(6).ID)},
		},
		{
			// The committed ledger drifts from the pages and the queue:
			// one in-flight charge too many on DRAM.
			name:    "used-conservation",
			corrupt: func(f *auditFixture) { f.m.Migrator.inflight[vm.TierDRAM]++ },
			rules:   []string{"used-conservation"},
			want:    []string{"used-conservation: DRAM: manager reports", "(Δ +1 pages)"},
		},
		{
			name:    "edge-counters/edge-sum",
			corrupt: func(f *auditFixture) { f.m.Migrator.edges[vm.TierDRAM][vm.TierNVM]++ },
			rules:   []string{"edge-counters"},
			want:    []string{"edge-counters: per-edge moves sum to 1, completed pages 0"},
		},
		{
			name:    "edge-counters/direction-sum",
			corrupt: func(f *auditFixture) { f.m.Migrator.stats.Promotions++ },
			rules:   []string{"edge-counters"},
			want:    []string{"edge-counters: promotions 1 + demotions 0 ≠ pages 0"},
		},
		{
			// NVM recorded as drained while it still holds pages and
			// tt2 page 20 is still queued into it.
			name: "evac-done",
			corrupt: func(f *auditFixture) {
				f.m.offline[vm.TierNVM] = true
				f.m.evacDone[vm.TierNVM] = true
			},
			rules: []string{"evac-done"},
			want: []string{
				"evac-done: NVM evacuated but 16 pages resident",
				fmt.Sprintf("evac-done: NVM evacuated but page %d queued into it", ref.dem.ID),
			},
		},
		{
			// NVM goes offline and the fallback sweep queues its pages to
			// DRAM, but one of tt2's swept moves is dropped.
			name: "offline-sweep",
			corrupt: func(f *auditFixture) {
				if !f.m.OfflineTier(vm.TierNVM) {
					panic("NVM offline refused")
				}
				if _, ok := f.m.Migrator.Cancel(f.t2.Peek(3)); !ok {
					panic("tt2 page 3 was not swept")
				}
			},
			rules: []string{"offline-sweep"},
			want:  []string{fmt.Sprintf("offline-sweep: NVM offline: 1 pages of tt2 resident and not queued to leave (first page %d)", ref.t2.Peek(3).ID)},
		},
		{
			// tt2's region drops out of the address space without its
			// teardown: the tenant table still charges it.
			name: "tenant-counts/leaked-region",
			corrupt: func(f *auditFixture) {
				as := f.m.AS
				for i, r := range as.Regions {
					if r == f.t2 {
						as.Regions = append(as.Regions[:i:i], as.Regions[i+1:]...)
					}
				}
			},
			rules: []string{"tenant-counts", "tenant-conservation", "used-conservation"},
			want: []string{
				"tenant-counts: tenant 2: counter says 24 pages in DRAM, recount says 0",
				"tenant-counts: tenant 2: counter says 8 pages in NVM, recount says 0",
				"tenant-conservation: DRAM: tenant occupancy sums to 48 pages, owned regions hold 24",
				"tenant-conservation: NVM: tenant occupancy sums to 16 pages, owned regions hold 8",
			},
		},
		{
			// A region charged to a tenant this address space never saw.
			name: "tenant-counts/unknown-owner",
			corrupt: func(f *auditFixture) {
				foreign := vm.NewAddressSpace(ps).MapOwned("foreign", 8*ps, 5)
				f.m.AS.Regions = append(f.m.AS.Regions, foreign)
			},
			rules: []string{"tenant-counts"},
			want:  []string{"tenant-counts: region foreign owned by tenant 5 beyond the occupancy table (2 tenants)"},
		},
		{
			// A reservation that outgrew DRAM, with the ledger agreeing.
			name: "reservation-fit/over-capacity",
			corrupt: func(f *auditFixture) {
				f.m.tenants.tenants[0].spec.Reserve[vm.TierDRAM] = 300 * sim.MB
				f.m.tenants.reserved[vm.TierDRAM] = 300 * sim.MB
			},
			rules: []string{"reservation-fit"},
			want:  []string{fmt.Sprintf("reservation-fit: DRAM: active reservations sum to %d bytes, capacity %d", 300*sim.MB, 256*sim.MB)},
		},
		{
			// The ledger admission reads drifts from the held specs.
			name:    "reservation-fit/ledger-drift",
			corrupt: func(f *auditFixture) { f.m.tenants.reserved[vm.TierNVM] -= ps },
			rules:   []string{"reservation-fit"},
			want:    []string{fmt.Sprintf("reservation-fit: NVM: reservation ledger says %d bytes, active tenants reserve 0", -ps)},
		},
		{
			name:    "tenant-orphan",
			corrupt: func(f *auditFixture) { f.m.tenants.tenants[1].departed = true },
			rules:   []string{"tenant-orphan"},
			want:    []string{"tenant-orphan: region tt2 still mapped for departed tenant 2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newAuditFixture(t)
			tc.corrupt(f)
			checkViolations(t, f.m.Audit(), tc.rules, tc.want)
		})
	}
}

// A clean machine audits clean, repeatedly: back-to-back audits must
// not trip over state the previous audit left behind.
func TestAuditCleanMachine(t *testing.T) {
	f := newAuditFixture(t)
	for i := 0; i < 3; i++ {
		if vs := f.m.Audit(); vs != nil {
			t.Fatalf("audit %d of a clean machine: %v", i, vs)
		}
	}
}

// A region whose set table outgrows the fast path's tally takes the
// page-by-page path, which recounts a clean machine as clean, its
// rate-tracked sets included, and finds a member moved behind its set's
// counters.
func TestAuditCleanSlowPath(t *testing.T) {
	f := newAuditFixture(t)
	for i := 0; i < comboSlots; i++ {
		f.m.Rates(f.m.AS.NewPageSet(fmt.Sprint("row", i), []vm.PageID{f.plain.PageID(i)}))
	}
	if f.plain.NumSlots() < comboSlots {
		t.Fatalf("fixture: %d set-table rows in plain", f.plain.NumSlots())
	}
	f.m.AS.SetTier(f.plain.Peek(1), vm.TierNVM)
	f.m.AS.SetTier(f.plain.Peek(3), vm.TierNVM)
	if vs := f.m.Audit(); vs != nil {
		t.Fatalf("clean audit through the page-by-page path: %v", vs)
	}
	f.plain.Peek(3).Tier = vm.TierDRAM
	checkViolations(t, f.m.Audit(), []string{"set-counts", "region-counts", "used-conservation"},
		[]string{"set-counts: set row3: counter says 1 pages in NVM, recount says 0"})
}

// The auditor's page mark does not outlive an audit: after a clean
// audit and after one that finds a page queued three times, every
// mapped and every queued page is unmarked, so no count can leak into
// the next audit and hide an orphan Migrating flag.
func TestAuditLeavesNoMark(t *testing.T) {
	f := newAuditFixture(t)
	checkNoMark := func(when string) {
		t.Helper()
		for _, r := range f.m.AS.Regions {
			r.EachPage(func(p *vm.Page) {
				if p.AuditMark != 0 {
					t.Errorf("%s: page %d keeps audit mark %d", when, p.ID, p.AuditMark)
				}
			})
		}
		for _, req := range f.m.Migrator.queue {
			if req.page.AuditMark != 0 {
				t.Errorf("%s: queued page %d keeps audit mark %d", when, req.page.ID, req.page.AuditMark)
			}
		}
		for _, s := range f.m.RateSets() {
			if s.AuditMark != 0 {
				t.Errorf("%s: set %s keeps audit mark %d", when, s.Name, s.AuditMark)
			}
		}
	}
	if vs := f.m.Audit(); vs != nil {
		t.Fatalf("clean audit: %v", vs)
	}
	checkNoMark("after a clean audit")
	f.enqueueRaw(f.promo, vm.TierDRAM)
	f.enqueueRaw(f.promo, vm.TierDRAM)
	if vs := f.m.Audit(); vs == nil {
		t.Fatal("audit of a page queued three times found nothing")
	}
	checkNoMark("after a failed audit")
}

// A clean audit of a warmed, tenanted machine with migrations in flight
// allocates nothing, and the audit stamp costs vm.Page no bytes.
func TestAuditAllocationFree(t *testing.T) {
	if got := unsafe.Sizeof(vm.Page{}); got != 8 {
		t.Errorf("unsafe.Sizeof(vm.Page{}) = %d, want 8", got)
	}
	f := newAuditFixture(t)
	if f.m.Migrator.QueueLen() == 0 {
		t.Fatal("fixture has an empty migration queue")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if vs := f.m.Audit(); vs != nil {
			t.Fatalf("clean audit: %v", vs)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Audit allocates %v times per call, want 0", allocs)
	}
}

// TestAuditUnmapResidue covers the unmap-residue rule: a clean unmap
// leaves nothing behind, and a torn-down region whose page is still
// resident, in a set, write-protected and queued is reported on all four
// counts.
func TestAuditUnmapResidue(t *testing.T) {
	f := newAuditFixture(t)
	f.m.AS.Unmap(f.plain)
	if vs := f.m.auditUnmap(f.plain); vs != nil {
		t.Fatalf("clean unmap: %v", vs)
	}

	f = newAuditFixture(t)
	f.m.AS.Unmap(f.plain)
	p := f.plain.Peek(3)
	p.Tier = vm.TierDRAM
	p.SetMigrating(true)
	f.m.AS.NewPageSet("ghost", []vm.PageID{p.ID})
	f.enqueueRaw(p, vm.TierNVM)
	checkViolations(t, f.m.auditUnmap(f.plain), []string{"unmap-residue"}, []string{
		fmt.Sprintf("unmap-residue: plain: page %d still resident in DRAM after unmap", p.ID),
		fmt.Sprintf("unmap-residue: plain: page %d still names set-table row 1 after unmap", p.ID),
		fmt.Sprintf("unmap-residue: plain: page %d still write-protected (migrating) after unmap", p.ID),
		fmt.Sprintf("unmap-residue: plain: page %d still queued for migration after unmap", p.ID),
	})
}
