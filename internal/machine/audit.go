// Runtime invariant auditor: opt-in conservation checks run once per
// quantum (Config.Audit, which the chaos and fleet experiments set on
// every machine they build). The auditor is an observer — it draws no randomness and writes
// nothing but its private page and set marks (vm.Page.AuditMark,
// vm.PageSet.AuditMark), which no decision reads and which it clears
// before it returns, so an audited
// run is bit-identical to an unaudited one; it exists to turn silent
// accounting drift (a leaked page charge in the committed ledger that
// every manager's placement reads, a double-resident page, a
// migration-queue ghost) into an immediate, diagnosable failure instead
// of a subtly wrong experiment.
package machine

import (
	"fmt"
	"math"
	"strings"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// AuditViolation is one failed invariant.
type AuditViolation struct {
	// Rule names the invariant class (e.g. "region-counts", "used-conservation").
	Rule string
	// Detail describes the specific failure with its numbers.
	Detail string
}

func (v AuditViolation) String() string { return v.Rule + ": " + v.Detail }

// Audit verifies the machine's conservation invariants and returns every
// violation found (nil when all hold):
//
//   - region-counts: each region's per-tier occupancy counters equal a
//     recount of its pages' Tier fields (no page resident in two tiers,
//     no lost pages).
//   - set-counts: each rate-tracked page set's per-tier counters equal a
//     recount of the pages whose set slot names it, and so does its
//     member count; each region's set table counts, per row, the page
//     slots that name it, and no slot names a row past the table.
//   - migrating-queue: the Migrating flag and the migration queue are a
//     bijection — every flagged page appears exactly once in the queue,
//     every queued request's page is flagged, and no request targets the
//     page's current tier.
//   - used-conservation: the machine's committed ledger (Committed, the
//     figure every manager's placement reads) equals, per tier, the
//     recounted resident bytes adjusted by the queued migrations (charged
//     to the destination at enqueue).
//   - edge-counters: the migration graph's per-edge completion counters
//     sum to the total completed pages, and promotions + demotions
//     equal that total.
//   - evac-done: an offline tier whose evacuation is recorded complete
//     has no resident pages and no inbound queued migration.
//   - offline-sweep: on an offline tier with an online migratable tier
//     to evacuate to, every resident page of a region the manager does
//     not drain itself is queued to move (the fallback sweep re-enqueues
//     them every quantum; see offlineSweep).
//   - tenant-counts: the address space's per-tenant occupancy table
//     equals a recount over owned regions, per tenant and tier.
//   - tenant-conservation: per tier, the tenant occupancy sums to the
//     pages of owned regions resident there (nothing charged to a
//     tenant that isn't resident, nothing owned that isn't charged).
//   - tenant-orphan: no region owned by a departed tenant remains
//     mapped (teardown bugs leak here first).
//   - reservation-fit: per tier, the reservations of tenants not yet
//     departed sum to at most the tier's capacity, and to the runtime's
//     reservation ledger that admission control reads.
//
// The tenant rules run only on machines with a tenant runtime, and
// offline-sweep, which walks the regions with pages on an offline tier
// once more, only while a tier is offline.
//
// Every other rule is checked on every call, and every rule but evac-done
// (which reads the address space's resident count, itself audited by
// used-conservation) and reservation-fit's capacity bound compares a
// counter against ground truth, in one read
// of each materialized page: the queue pass counts each queued page's
// entries in its AuditMark, then a single walk over each region's
// chunks recounts tiers (the region's recount is also its owner's tenant
// recount), tallies tiers per set slot, and checks each Migrating flag
// against the mark, and a closing queue pass reports duplicates and
// clears the marks, so no mark outlives the audit. Each region's slot
// tally is folded into its set table's rows, which name the sets, so
// rate-tracked sets (marked with their recount's index for the audit)
// are recounted through their pages' set slots, never over their own
// member lists. A clean audit allocates nothing. The auditor writes
// only its private marks, draws no randomness, and changes no decision;
// Step panics with auditDump on the first non-empty return.
func (m *Machine) Audit() []AuditViolation {
	var vs []AuditViolation
	queue := m.Migrator.queue
	nt := 0
	if m.tenants != nil {
		nt = m.AS.NumTenants()
	}

	// Migrating flag ↔ queue bijection, queue side.
	for _, req := range queue {
		p := req.page
		if !p.Migrating() {
			vs = append(vs, AuditViolation{"migrating-queue",
				fmt.Sprintf("page %d queued %v→%v without Migrating flag", p.ID, p.Tier, req.dst)})
		}
		if p.Tier == req.dst {
			vs = append(vs, AuditViolation{"migrating-queue",
				fmt.Sprintf("page %d queued to its current tier %v", p.ID, req.dst)})
		}
		if p.AuditMark < math.MaxUint8 {
			p.AuditMark++
		}
	}

	// One pass over each region's pages: occupancy recount, the resident
	// bytes reused by used-conservation, the owner's tenant recount, and
	// the flag side of the queue bijection.
	var resident [vm.MaxTiers]int64
	var owned [vm.MaxTiers]int
	tally := m.auditTenantTable(nt)
	sets := m.auditSetTables()
	for _, r := range m.AS.Regions {
		var recount [vm.MaxTiers]int
		var ok bool
		if vs, ok = m.tallyRegion(vs, r, &recount, sets); !ok {
			vs = m.recountRegion(vs, r, &recount, sets)
		}
		// Unmaterialized pages are TierNone by construction.
		recount[vm.TierNone] += r.NumPages() - r.TouchedPages()
		for t, n := range recount {
			resident[t] += int64(n) * r.PageSize
		}
		for t := vm.Tier(0); t < vm.MaxTiers; t++ {
			if got := r.Count(t); got != recount[t] {
				vs = append(vs, AuditViolation{"region-counts",
					fmt.Sprintf("%s: counter says %d pages in %v, recount says %d", r.Name, got, t, recount[t])})
			}
		}

		o := r.Owner()
		if m.tenants == nil || o == vm.TenantNone {
			continue
		}
		if m.tenants.Departed(o) {
			vs = append(vs, AuditViolation{"tenant-orphan",
				fmt.Sprintf("region %s still mapped for departed tenant %d", r.Name, o)})
		}
		if int(o) > nt {
			vs = append(vs, AuditViolation{"tenant-counts",
				fmt.Sprintf("region %s owned by tenant %d beyond the occupancy table (%d tenants)", r.Name, o, nt)})
			continue
		}
		row := &tally[o-1]
		for t, n := range recount {
			row[t] += n
			owned[t] += n
		}
	}

	// Queue side again: a mark above 1 is a page queued more than once,
	// reported at its first entry; clearing the mark there leaves every
	// page unmarked for the next audit. The mark saturates, so a count
	// of 255 means at least that many.
	for _, req := range queue {
		p := req.page
		if p.AuditMark > 1 {
			atLeast := ""
			if p.AuditMark == math.MaxUint8 {
				atLeast = "at least "
			}
			vs = append(vs, AuditViolation{"migrating-queue",
				fmt.Sprintf("page %d queued %s%d times", p.ID, atLeast, p.AuditMark)})
		}
		p.AuditMark = 0
	}

	// Rate-tracked page sets (the workloads' traffic sets), against the
	// recount the region walk made through their pages' set slots.
	for i, s := range m.rateOrder {
		s.AuditMark = 0
		a := &sets[i]
		for t := vm.Tier(0); t < vm.MaxTiers; t++ {
			if got := s.Count(t); got != a.tiers[t] {
				vs = append(vs, AuditViolation{"set-counts",
					fmt.Sprintf("set %s: counter says %d pages in %v, recount says %d", s.Name, got, t, a.tiers[t])})
			}
		}
		if a.pages != s.Len() {
			vs = append(vs, AuditViolation{"set-counts",
				fmt.Sprintf("set %s: %d pages point at it, its member list holds %d", s.Name, a.pages, s.Len())})
		}
	}

	// Committed-ledger conservation. In-flight migrations are charged to
	// the destination at enqueue, so the expected figure moves each queued
	// page's bytes from its (still-resident) source to its destination
	// before comparing.
	expected := resident
	ps := m.Cfg.PageSize
	for _, req := range queue {
		if int(req.page.Tier) > 0 && int(req.page.Tier) < vm.MaxTiers {
			expected[req.page.Tier] -= ps
		}
		if int(req.dst) > 0 && int(req.dst) < vm.MaxTiers {
			expected[req.dst] += ps
		}
	}
	for _, td := range m.Cfg.Tiers {
		if got := m.Committed(td.ID); got != expected[td.ID] {
			vs = append(vs, AuditViolation{"used-conservation",
				fmt.Sprintf("%v: manager reports %d bytes used, resident+in-flight is %d (Δ %+d pages)",
					td.ID, got, expected[td.ID], (got-expected[td.ID])/ps)})
		}
	}

	// Migration-graph edge counters.
	st := m.Migrator.Stats()
	var edgeSum int64
	for s := 0; s < vm.MaxTiers; s++ {
		for d := 0; d < vm.MaxTiers; d++ {
			edgeSum += m.Migrator.edges[s][d]
		}
	}
	if edgeSum != st.Pages {
		vs = append(vs, AuditViolation{"edge-counters",
			fmt.Sprintf("per-edge moves sum to %d, completed pages %d", edgeSum, st.Pages)})
	}
	if st.Promotions+st.Demotions != st.Pages {
		vs = append(vs, AuditViolation{"edge-counters",
			fmt.Sprintf("promotions %d + demotions %d ≠ pages %d", st.Promotions, st.Demotions, st.Pages)})
	}

	// Tenant occupancy table against the owned-region recount.
	if m.tenants != nil {
		var sum [vm.MaxTiers]int
		for id := vm.TenantID(1); int(id) <= nt; id++ {
			for t := vm.Tier(0); t < vm.MaxTiers; t++ {
				got := m.AS.TenantPages(id, t)
				sum[t] += got
				if got != tally[id-1][t] {
					vs = append(vs, AuditViolation{"tenant-counts",
						fmt.Sprintf("tenant %d: counter says %d pages in %v, recount says %d",
							id, got, t, tally[id-1][t])})
				}
			}
		}
		for t := vm.Tier(0); t < vm.MaxTiers; t++ {
			if sum[t] != owned[t] {
				vs = append(vs, AuditViolation{"tenant-conservation",
					fmt.Sprintf("%v: tenant occupancy sums to %d pages, owned regions hold %d", t, sum[t], owned[t])})
			}
		}
	}

	// Admission control's books: the reservations still held fit each
	// tier and match the ledger new arrivals are admitted against.
	if tr := m.tenants; tr != nil {
		var held [vm.MaxTiers]int64
		for i := range tr.tenants {
			if ts := &tr.tenants[i]; !ts.departed {
				for t, b := range ts.spec.Reserve {
					held[t] += b
				}
			}
		}
		for _, td := range m.Cfg.Tiers {
			if held[td.ID] > td.Capacity {
				vs = append(vs, AuditViolation{"reservation-fit",
					fmt.Sprintf("%v: active reservations sum to %d bytes, capacity %d", td.ID, held[td.ID], td.Capacity)})
			}
			if got := tr.Reserved(td.ID); got != held[td.ID] {
				vs = append(vs, AuditViolation{"reservation-fit",
					fmt.Sprintf("%v: reservation ledger says %d bytes, active tenants reserve %d", td.ID, got, held[td.ID])})
			}
		}
	}

	// Offline tiers: a completed evacuation stays drained, and on a tier
	// the fallback sweep can evacuate, every page it owns is queued.
	for _, td := range m.Cfg.Tiers {
		t := td.ID
		if !m.offline[t] {
			continue
		}
		if res := m.AS.Count(t); m.evacDone[t] && res != 0 {
			vs = append(vs, AuditViolation{"evac-done",
				fmt.Sprintf("%v evacuated but %d pages resident", t, res)})
		}
		for _, req := range queue {
			if req.dst == t && m.evacDone[t] {
				vs = append(vs, AuditViolation{"evac-done",
					fmt.Sprintf("%v evacuated but page %d queued into it", t, req.page.ID)})
				break
			}
		}
		if _, ok := m.nearestOnline(t); !ok || m.numOffline == 0 {
			continue
		}
		for _, r := range m.AS.Regions {
			if r.Count(t) == 0 || m.mgrDrains(r) {
				continue
			}
			n, first := 0, vm.PageID(0)
			r.EachPage(func(p *vm.Page) {
				if p.Tier == t && !p.Migrating() {
					if n++; n == 1 {
						first = p.ID
					}
				}
			})
			if n > 0 {
				vs = append(vs, AuditViolation{"offline-sweep",
					fmt.Sprintf("%v offline: %d pages of %s resident and not queued to leave (first page %d)", t, n, r.Name, first)})
			}
		}
	}
	return vs
}

// auditTenantTable returns the machine's per-tenant recount scratch,
// sized for nt tenants and zeroed.
func (m *Machine) auditTenantTable(nt int) [][vm.MaxTiers]int {
	if cap(m.auditTenant) < nt {
		m.auditTenant = make([][vm.MaxTiers]int, nt)
	}
	t := m.auditTenant[:nt]
	clear(t)
	return t
}

// comboSlots bounds the slot values the region pass's fast path
// indexes: a region with comboSlots or more set-table rows takes the
// page-by-page path. Workloads split each region's pages into at most
// three sets.
const comboSlots = 4

// comboTally counts a region's pages per (slot, tier) combination. Its
// two halves take alternate pages (a chunk is 32 pages, so they pair up
// exactly), so a run of pages in one combination does not serialize on a
// single counter: with a combination's two counters adjacent in one word
// instead, a load waited on the neighbouring store and the walk ran about
// 1.3× slower on such runs.
type comboTally [2][comboSlots][vm.MaxTiers]int32

// slotRow is one set-table row's page-by-page recount: the page slots
// naming the row, and their pages' tiers.
type slotRow struct {
	tiers [vm.MaxTiers]int
	named int
}

// auditSet is one rate-tracked set's recount: its pages per tier and in
// all, counted through the pages' set slots.
type auditSet struct {
	tiers [vm.MaxTiers]int
	pages int
}

// auditSetTables returns the machine's per-rate-set recount table, sized
// for every rate-tracked set (indexed like rateOrder) and zeroed, and
// marks each rate-tracked set with 1 + its index, so the region walk
// finds a set's recount without a map lookup. The closing set-counts
// loop clears the marks.
func (m *Machine) auditSetTables() []auditSet {
	n := len(m.rateOrder)
	if cap(m.auditSets) < n {
		m.auditSets = make([]auditSet, n)
	}
	sets := m.auditSets[:n]
	clear(sets)
	for i, s := range m.rateOrder {
		s.AuditMark = int32(i + 1)
	}
	return sets
}

// tallyRegion is the region pass's fast path: one counter increment per
// materialized page, into the combination tally (tallyChunk), from which
// a fold derives the region's tier recount rc, each set-table row's slot
// count (checked against the table's), and each rate-tracked set's tier
// recount — no per-page branch on which set a page is in. It returns
// false, having changed nothing but the tally (zeroed again), when the
// region has more rows than the tally indexes, or some page needs a
// report (an out-of-range tier, a Migrating flag with no queue mark, a
// slot naming a row past the table): recountRegion then walks the region
// page by page.
func (m *Machine) tallyRegion(vs []AuditViolation, r *vm.Region, rc *[vm.MaxTiers]int, sets []auditSet) ([]AuditViolation, bool) {
	n := r.NumSlots()
	if n >= comboSlots {
		return vs, false
	}
	ct := &m.auditCombos
	ok := true
	var slotOr uint8
	var tierOr vm.Tier
	for ci, nc := 0, r.NumChunks(); ci < nc && ok; ci++ {
		chunkOk, so, to := tallyChunk(r.Chunk(ci), ct)
		ok, slotOr, tierOr = chunkOk, slotOr|so, tierOr|to
	}
	// A slot value past the tally's range was folded into range by the
	// mask, into any row; the OR shows it.
	if slotOr&^(comboSlots-1) != 0 {
		*ct = comboTally{}
		return vs, false
	}
	// Every page's slot and tier are submasks of the ORs, so the rows
	// and tiers up to them hold every count the walk made.
	tierHi := vm.MaxTiers - 1
	if uint8(tierOr) < vm.MaxTiers {
		tierHi = int(tierOr)
	} else {
		ok = false // an out-of-range tier, which the mask folded into range
	}
	var recount [vm.MaxTiers]int
	var named [comboSlots]int
	var tiers [comboSlots][vm.MaxTiers]int
	for k := range int(slotOr) + 1 {
		a, b := &ct[0][k], &ct[1][k]
		for t := range tierHi + 1 {
			c := int(a[t] + b[t])
			recount[t] += c
			named[k] += c
			tiers[k][t] += c
		}
		*a, *b = [vm.MaxTiers]int32{}, [vm.MaxTiers]int32{}
	}
	if !ok {
		return vs, false
	}
	// A slot in range but past the table names no row.
	for k := n + 1; k < comboSlots; k++ {
		if named[k] > 0 {
			return vs, false
		}
	}
	for t, c := range recount {
		rc[t] += c
	}
	for k := 1; k <= n; k++ {
		vs = m.foldRow(vs, r, k, named[k], &tiers[k], sets)
	}
	return vs, true
}

// recountRegion is the region pass's page-by-page path, taken when
// tallyRegion declines: it adds each materialized page's tier to rc and
// its slot to a per-row recount, reports every page that breaks a rule,
// and folds the rows into the set recount as tallyRegion does.
func (m *Machine) recountRegion(vs []AuditViolation, r *vm.Region, rc *[vm.MaxTiers]int, sets []auditSet) []AuditViolation {
	var rows [vm.MaxRegionSets + 1]slotRow
	for ci, nc := 0, r.NumChunks(); ci < nc; ci++ {
		c := r.Chunk(ci)
		for j := range c {
			p := &c[j]
			if !p.Materialized() {
				continue
			}
			t := uint8(p.Tier)
			if t < vm.MaxTiers {
				rc[t]++
			} else {
				vs = append(vs, AuditViolation{"region-counts",
					fmt.Sprintf("%s: page %d has out-of-range tier %d", r.Name, p.ID, p.Tier)})
			}
			if p.Migrating() && p.AuditMark == 0 {
				vs = append(vs, AuditViolation{"migrating-queue",
					fmt.Sprintf("page %d has Migrating flag but no queue entry", p.ID)})
			}
			if k := p.Slot(); k != 0 {
				row := &rows[k]
				row.named++
				if t < vm.MaxTiers {
					row.tiers[t]++
				}
			}
		}
	}
	n := r.NumSlots()
	for k := 1; k < len(rows); k++ {
		row := &rows[k]
		switch {
		case k <= n:
			vs = m.foldRow(vs, r, k, row.named, &row.tiers, sets)
		case row.named > 0:
			vs = append(vs, AuditViolation{"set-counts",
				fmt.Sprintf("%s: %d page slots name row %d of a %d-row set table", r.Name, row.named, k, n)})
		}
	}
	return vs
}

// foldRow checks set-table row k of region r against the named page
// slots the walk counted, and adds their tiers to the recount of the set
// the row names, if it is rate-tracked.
func (m *Machine) foldRow(vs []AuditViolation, r *vm.Region, k, named int, tiers *[vm.MaxTiers]int, sets []auditSet) []AuditViolation {
	s, refs := r.SlotSet(uint8(k))
	if named != refs {
		vs = append(vs, AuditViolation{"set-counts",
			fmt.Sprintf("%s: %d page slots name set-table row %d, the table counts %d", r.Name, named, k, refs)})
	}
	if s != nil && s.AuditMark > 0 {
		a := &sets[s.AuditMark-1]
		for t, c := range tiers {
			a.tiers[t] += c
		}
		a.pages += named
	}
	return vs
}

// tallyChunk adds each materialized page of chunk c to the combination
// tally and returns the OR of every page's slot and of every tier, with
// ok false if some page has a Migrating flag with no queue mark. Slot
// values and tiers are masked into the tally's range; one past it shows
// in an OR instead of a branch per page. (A running maximum of the slots
// compiled to a compare-and-branch per page, which depends on which set
// each page is in.) Each 8-byte page is copied into a local first: read
// through a pointer, its fields were loaded again after every tally
// increment, which the compiler cannot prove leaves the page alone, and
// the walk ran about 10% slower. The tier histograms this replaced made
// -exp chaos 1.18× faster than a page-by-page loop (EXPERIMENTS.md, "The
// invariant auditor's cost").
func tallyChunk(c []vm.Page, ct *comboTally) (ok bool, slotOr uint8, tierOr vm.Tier) {
	ok = true
	a, b := &ct[0], &ct[1]
	for j := 0; j+1 < len(c); j += 2 {
		p, q := c[j], c[j+1]
		if p.Materialized() {
			k, t := p.Slot(), p.Tier
			tierOr |= t
			slotOr |= k
			if p.Migrating() && p.AuditMark == 0 {
				ok = false
			}
			a[k&(comboSlots-1)][t&(vm.MaxTiers-1)]++
		}
		if q.Materialized() {
			k, t := q.Slot(), q.Tier
			tierOr |= t
			slotOr |= k
			if q.Migrating() && q.AuditMark == 0 {
				ok = false
			}
			b[k&(comboSlots-1)][t&(vm.MaxTiers-1)]++
		}
	}
	return ok, slotOr, tierOr
}

// The OR tests in tallyChunk find every tier ≥ MaxTiers and every slot
// value ≥ comboSlots, and its masks keep the tally's indexes in range,
// only when both are powers of two; this fails to compile otherwise.
const _ uint = -(vm.MaxTiers&(vm.MaxTiers-1) | comboSlots&(comboSlots-1))

// auditUnmap verifies that tearing down region r left no residue: every
// page unplaced, no lingering write protection or queued migration, no
// set membership. Called by Machine.Unmap after AddressSpace.Unmap.
func (m *Machine) auditUnmap(r *vm.Region) []AuditViolation {
	var vs []AuditViolation
	r.EachPage(func(p *vm.Page) {
		if p.Tier != vm.TierNone {
			vs = append(vs, AuditViolation{"unmap-residue",
				fmt.Sprintf("%s: page %d still resident in %v after unmap", r.Name, p.ID, p.Tier)})
		}
		if k := p.Slot(); k != 0 {
			vs = append(vs, AuditViolation{"unmap-residue",
				fmt.Sprintf("%s: page %d still names set-table row %d after unmap", r.Name, p.ID, k)})
		}
		if p.Migrating() {
			vs = append(vs, AuditViolation{"unmap-residue",
				fmt.Sprintf("%s: page %d still write-protected (migrating) after unmap", r.Name, p.ID)})
		}
	})
	for _, req := range m.Migrator.queue {
		if r.Contains(req.page.ID) {
			vs = append(vs, AuditViolation{"unmap-residue",
				fmt.Sprintf("%s: page %d still queued for migration after unmap", r.Name, req.page.ID)})
		}
	}
	return vs
}

// auditDump renders the violations with a machine-state snapshot —
// clock, tier occupancy, migration queue, fault counters — so a failed
// soak run is diagnosable from the panic message alone.
func (m *Machine) auditDump(vs []AuditViolation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: audit failed at t=%.6fs (%d audits run): %d violation(s)\n",
		float64(m.Clock.Now())/float64(sim.Second), m.auditsRun, len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	b.WriteString("state:\n")
	for _, td := range m.Cfg.Tiers {
		status := "online"
		if m.offline[td.ID] {
			status = "OFFLINE"
		}
		fmt.Fprintf(&b, "  %-6v %s: %d pages resident, cap %d, committed %d\n",
			td.ID, status, m.AS.Count(td.ID), td.Capacity, m.Committed(td.ID))
	}
	fmt.Fprintf(&b, "  migration queue: %d pages, stats %+v\n", m.Migrator.QueueLen(), m.Migrator.Stats())
	fmt.Fprintf(&b, "  faults: %+v\n", m.faultStats)
	fmt.Fprintf(&b, "  episodes: %d logged\n", len(m.episodes))
	return b.String()
}
