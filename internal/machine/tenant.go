// Multi-tenant lifecycle: QoS classes, per-tier quota specs, admission
// control, and drain-on-departure, all on the simulated timeline. The
// runtime lives in machine (below the managers) and is the one record of
// which tenants hold an admission: a QoS-aware manager reads it through
// Machine.Tenants and Admission rather than keeping its own copy; a
// machine that never calls EnableTenants carries no tenant state and
// runs byte-identically to a build without this file.
package machine

import (
	"fmt"
	"strings"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// QoSClass ranks tenants for quota enforcement and eviction ordering.
// Higher classes are protected: demotion pressure and tier evacuations
// land on lower classes first.
type QoSClass int8

const (
	// BestEffort tenants have no protection: they are evicted first and
	// their reservations are advisory.
	BestEffort QoSClass = iota
	// Silver tenants get weighted-fair protection between gold and
	// best-effort.
	Silver
	// Gold tenants are evicted last and their soft reservations hold
	// whenever lower-class pages exist to evict.
	Gold

	// NumQoSClasses bounds per-class arrays.
	NumQoSClasses = 3
)

// Weight is the tenant's share weight in the weighted-fair selector:
// gold 4, silver 2, besteffort 1.
func (c QoSClass) Weight() int { return 1 << c }

// String returns the class's flag-facing name.
func (c QoSClass) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	case BestEffort:
		return "besteffort"
	}
	return fmt.Sprintf("qos(%d)", int8(c))
}

// ParseQoS maps a class name ("gold", "silver", "besteffort") back to
// its QoSClass; ok is false for unknown names.
func ParseQoS(name string) (QoSClass, bool) {
	switch strings.ToLower(name) {
	case "gold":
		return Gold, true
	case "silver":
		return Silver, true
	case "besteffort", "best-effort":
		return BestEffort, true
	}
	return BestEffort, false
}

// QoSNames lists the class names accepted by ParseQoS, best first.
func QoSNames() []string { return []string{"gold", "silver", "besteffort"} }

// TenantSpec declares one tenant's identity and per-tier quotas. Both
// quota tables are keyed by TierID (fixed arrays, like the fault
// counters, so specs stay comparable).
type TenantSpec struct {
	Name  string
	Class QoSClass
	// Reserve is the soft reservation in bytes per tier: admission
	// control guarantees the sum of active reservations fits each tier,
	// and the fair selector shields a tenant below its reservation from
	// demotion while over-quota or lower-class pages exist.
	Reserve [vm.MaxTiers]int64
	// Cap is the hard cap in bytes per tier (0 = uncapped): placement
	// and promotion never push a tenant past it.
	Cap [vm.MaxTiers]int64
}

// Validate reports the first invalid field, or nil: a class outside
// [0, NumQoSClasses), or a negative reservation or cap (a negative
// reservation would lower the sum later arrivals are admitted against).
func (s TenantSpec) Validate() error {
	if s.Class < 0 || s.Class >= NumQoSClasses {
		return fmt.Errorf("machine: tenant %q: QoS class %d outside [0, %d)", s.Name, s.Class, NumQoSClasses)
	}
	for t := range s.Reserve {
		if s.Reserve[t] < 0 {
			return fmt.Errorf("machine: tenant %q: negative Reserve[%v] %d", s.Name, vm.Tier(t), s.Reserve[t])
		}
		if s.Cap[t] < 0 {
			return fmt.Errorf("machine: tenant %q: negative Cap[%v] %d", s.Name, vm.Tier(t), s.Cap[t])
		}
	}
	return nil
}

// TenantApp is the running side of a tenant: the workload(s) and
// regions its start function created. Stop must make the workloads
// report Done; Regions returns every region to drain and unmap on
// departure.
type TenantApp interface {
	Stop()
	Regions() []*vm.Region
}

// AdmitResult is the outcome of a TenantRuntime.Admit call.
type AdmitResult int8

const (
	// Admitted: reservations fit, the app was started.
	Admitted AdmitResult = iota
	// AdmitQueued: reservations don't fit right now; the arrival waits
	// FIFO and starts when departures free enough reservation.
	AdmitQueued
	// AdmitRejected: the spec fails Validate, or its reservation exceeds
	// a tier's total capacity and can never be met.
	AdmitRejected
)

func (r AdmitResult) String() string {
	switch r {
	case Admitted:
		return "admitted"
	case AdmitQueued:
		return "queued"
	case AdmitRejected:
		return "rejected"
	}
	return fmt.Sprintf("admit(%d)", int8(r))
}

// TenantStats counts lifecycle outcomes.
type TenantStats struct {
	Admitted int64
	Queued   int64
	Rejected int64
	Departed int64
}

// pendingAdmit is one queued arrival waiting for reservation space.
type pendingAdmit struct {
	spec  TenantSpec
	start func(id vm.TenantID) TenantApp
}

// tenantState is the runtime's per-tenant slot (index id-1). Slots are
// never reused: departed tenants keep their ID, histogram, and counters
// for end-of-run reporting.
type tenantState struct {
	spec       TenantSpec
	app        TenantApp
	active     bool
	departed   bool
	hist       *sim.Histogram
	migrations int64
}

// TenantRuntime manages tenant lifecycle on one machine: admission
// control against per-tier reservations, FIFO queueing of arrivals that
// don't fit, departure draining through the normal migrator, and
// per-tenant / per-class SLO accounting.
type TenantRuntime struct {
	m       *Machine
	tenants []tenantState
	pending []pendingAdmit
	// reserved is the summed soft reservation of active tenants per
	// tier; admission keeps it within each tier's capacity.
	reserved  [vm.MaxTiers]int64
	classHist [NumQoSClasses]*sim.Histogram
	classMig  [NumQoSClasses]int64
	stats     TenantStats
}

// EnableTenants attaches a tenant runtime to the machine (idempotent).
// Machines without one carry zero tenant state.
func (m *Machine) EnableTenants() *TenantRuntime {
	if m.tenants == nil {
		tr := &TenantRuntime{m: m}
		for i := range tr.classHist {
			tr.classHist[i] = sim.NewHistogram()
		}
		m.tenants = tr
	}
	return m.tenants
}

// Tenants returns the machine's tenant runtime, or nil when tenancy was
// never enabled.
func (m *Machine) Tenants() *TenantRuntime { return m.tenants }

// AddWorkloadFor registers a workload owned by tenant id: its per-op
// latencies feed the tenant's (and its class's) SLO histogram. Tenant
// app start functions use it in place of AddWorkload.
func (m *Machine) AddWorkloadFor(w Workload, owner vm.TenantID) {
	m.AddWorkload(w)
	m.wmeta[len(m.wmeta)-1].tenant = owner
}

// Admit runs admission control for spec: if the sum of active
// reservations plus spec's fits every tier, a dense TenantID is assigned
// and start is called to launch the tenant's app. Arrivals that don't
// fit wait FIFO (head-of-line, so admission order is deterministic) and
// start on a later departure; specs that fail Validate and reservations
// no machine state could ever satisfy are rejected.
func (tr *TenantRuntime) Admit(spec TenantSpec, start func(id vm.TenantID) TenantApp) (vm.TenantID, AdmitResult) {
	if spec.Validate() != nil {
		tr.stats.Rejected++
		return vm.TenantNone, AdmitRejected
	}
	for _, td := range tr.m.Cfg.Tiers {
		if spec.Reserve[td.ID] > td.Capacity {
			tr.stats.Rejected++
			return vm.TenantNone, AdmitRejected
		}
	}
	if len(tr.pending) > 0 || !tr.fits(spec) {
		tr.pending = append(tr.pending, pendingAdmit{spec: spec, start: start})
		tr.stats.Queued++
		return vm.TenantNone, AdmitQueued
	}
	return tr.admit(spec, start), Admitted
}

// fits reports whether spec's reservation fits next to the active ones.
func (tr *TenantRuntime) fits(spec TenantSpec) bool {
	for _, td := range tr.m.Cfg.Tiers {
		if tr.reserved[td.ID]+spec.Reserve[td.ID] > td.Capacity {
			return false
		}
	}
	return true
}

// admit commits one admission.
func (tr *TenantRuntime) admit(spec TenantSpec, start func(id vm.TenantID) TenantApp) vm.TenantID {
	tr.tenants = append(tr.tenants, tenantState{spec: spec, active: true, hist: sim.NewHistogram()})
	id := vm.TenantID(len(tr.tenants))
	for _, td := range tr.m.Cfg.Tiers {
		tr.reserved[td.ID] += spec.Reserve[td.ID]
	}
	tr.stats.Admitted++
	tr.tenants[id-1].app = start(id)
	return id
}

// Depart begins tenant id's departure: its app stops generating traffic
// immediately, and its regions drain through the normal migrator — the
// runtime polls once per quantum (an event on the sim timeline) until no
// page of the tenant is still write-protected by an in-flight migration,
// then unmaps the regions, releases the reservation, marks the tenant
// departed, and retries queued arrivals. Unknown, departed, or still-launching IDs are no-ops.
func (tr *TenantRuntime) Depart(id vm.TenantID) {
	if id <= 0 || int(id) > len(tr.tenants) {
		return
	}
	ts := &tr.tenants[id-1]
	if !ts.active || ts.app == nil {
		return
	}
	ts.active = false
	ts.app.Stop()
	tr.pollDrain(id, tr.m.Clock.Now())
}

// pollDrain completes the departure once the tenant's pages have no
// in-flight migrations, rescheduling itself one quantum out otherwise.
func (tr *TenantRuntime) pollDrain(id vm.TenantID, now int64) {
	ts := &tr.tenants[id-1]
	if tr.draining(ts) {
		tr.m.Events.Schedule(now+Quantum, func(at int64) { tr.pollDrain(id, at) })
		return
	}
	for _, r := range ts.app.Regions() {
		tr.m.Unmap(r)
	}
	for _, td := range tr.m.Cfg.Tiers {
		tr.reserved[td.ID] -= ts.spec.Reserve[td.ID]
	}
	ts.app = nil
	ts.departed = true
	tr.stats.Departed++
	tr.retryPending()
}

// draining reports whether any page of the tenant's regions is still
// mid-copy (Enqueue write-protects at enqueue time, so the Migrating
// flag covers queued and in-flight moves alike).
func (tr *TenantRuntime) draining(ts *tenantState) bool {
	for _, r := range ts.app.Regions() {
		busy := false
		r.EachPage(func(p *vm.Page) { busy = busy || p.Migrating() })
		if busy {
			return true
		}
	}
	return false
}

// retryPending admits queued arrivals strictly FIFO: the head starts as
// soon as it fits; a head that still doesn't fit keeps the queue waiting
// (no overtaking, so admission order never depends on spec sizes).
func (tr *TenantRuntime) retryPending() {
	for len(tr.pending) > 0 && tr.fits(tr.pending[0].spec) {
		p := tr.pending[0]
		tr.pending = tr.pending[1:]
		tr.admit(p.spec, p.start)
	}
}

// recordOps feeds one quantum's achieved per-op latency into the
// tenant's and its class's SLO histograms, weighted by the op count.
func (tr *TenantRuntime) recordOps(id vm.TenantID, ops, opTime float64) {
	if id <= 0 || int(id) > len(tr.tenants) {
		return
	}
	n := uint64(ops + 0.5)
	if n == 0 {
		return
	}
	ts := &tr.tenants[id-1]
	ts.hist.ObserveN(opTime, n)
	tr.classHist[ts.spec.Class].ObserveN(opTime, n)
}

// noteMigration attributes one completed page move to its owner.
func (tr *TenantRuntime) noteMigration(id vm.TenantID) {
	if id <= 0 || int(id) > len(tr.tenants) {
		return
	}
	ts := &tr.tenants[id-1]
	ts.migrations++
	tr.classMig[ts.spec.Class]++
}

// sampleTelemetry emits the per-tenant series for every tenant admitted
// so far: "tenant.<id>.<fastest>.pages" (DRAM share on the classic
// testbed), ".migrations", and ".slo.p99" (ns). Series are lazy — they
// first appear at the sample after the tenant's admission — and the
// CSV writer's union-of-timestamps alignment backfills earlier rows
// with 0.
func (tr *TenantRuntime) sampleTelemetry(t *Telemetry, m *Machine, now int64) {
	fast := strings.ToLower(m.fastest.String())
	for i := range tr.tenants {
		ts := &tr.tenants[i]
		if ts.departed {
			continue
		}
		id := vm.TenantID(i + 1)
		prefix := fmt.Sprintf("tenant.%d.", id)
		t.get(prefix+fast+".pages").Append(now, float64(m.AS.TenantPages(id, m.fastest)))
		t.get(prefix+"migrations").Append(now, float64(ts.migrations))
		t.get(prefix+"slo.p99").Append(now, ts.hist.Quantile(0.99))
	}
}

// NumTenants returns how many tenants were ever admitted (IDs run
// 1..NumTenants); 0 on a nil runtime.
func (tr *TenantRuntime) NumTenants() int {
	if tr == nil {
		return 0
	}
	return len(tr.tenants)
}

// Active reports whether tenant id is admitted and not departing.
func (tr *TenantRuntime) Active(id vm.TenantID) bool {
	return id > 0 && int(id) <= len(tr.tenants) && tr.tenants[id-1].active
}

// Departed reports whether tenant id has fully departed (regions
// unmapped, reservation released).
func (tr *TenantRuntime) Departed(id vm.TenantID) bool {
	return id > 0 && int(id) <= len(tr.tenants) && tr.tenants[id-1].departed
}

// Admission returns the spec tenant id was admitted with while its
// admission holds: from Admit until its departure completes (regions
// unmapped, reservation released), so a departing tenant still counts
// while it drains. ok is false for unknown and departed tenants and on a
// nil runtime.
func (tr *TenantRuntime) Admission(id vm.TenantID) (spec TenantSpec, ok bool) {
	if tr == nil || id <= 0 || int(id) > len(tr.tenants) || tr.tenants[id-1].departed {
		return TenantSpec{}, false
	}
	return tr.tenants[id-1].spec, true
}

// SpecOf returns tenant id's spec (zero value for unknown IDs).
func (tr *TenantRuntime) SpecOf(id vm.TenantID) TenantSpec {
	if id <= 0 || int(id) > len(tr.tenants) {
		return TenantSpec{}
	}
	return tr.tenants[id-1].spec
}

// Migrations returns completed page moves attributed to tenant id.
func (tr *TenantRuntime) Migrations(id vm.TenantID) int64 {
	if id <= 0 || int(id) > len(tr.tenants) {
		return 0
	}
	return tr.tenants[id-1].migrations
}

// ClassHist returns the aggregate SLO histogram of class c.
func (tr *TenantRuntime) ClassHist(c QoSClass) *sim.Histogram { return tr.classHist[c] }

// ClassMigrations returns completed page moves attributed to class c.
func (tr *TenantRuntime) ClassMigrations(c QoSClass) int64 { return tr.classMig[c] }

// Reserved returns the summed active soft reservation on tier t.
func (tr *TenantRuntime) Reserved(t vm.TierID) int64 {
	if int(t) < 0 || int(t) >= vm.MaxTiers {
		return 0
	}
	return tr.reserved[t]
}

// PendingAdmits returns how many arrivals are queued for admission.
func (tr *TenantRuntime) PendingAdmits() int { return len(tr.pending) }

// Stats returns the lifecycle counters.
func (tr *TenantRuntime) Stats() TenantStats { return tr.stats }
