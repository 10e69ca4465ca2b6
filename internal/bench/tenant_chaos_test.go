package bench

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// qosEvacResult is one scripted CXL-outage run against a tenanted
// machine: per-tenant CXL occupancy snapshots around the drain.
type qosEvacResult struct {
	goldAtOffline int // gold CXL pages when the tier drops
	beAtOffline   int // besteffort CXL pages when the tier drops
	goldWhenBEDry int // gold CXL pages at the first sample with BE fully drained
	sawBEDry      bool
	orderViolated bool // a gold page left CXL while BE pages remained
	cxlAfter      int64
	evacuations   int64
}

// qosEvacRun scripts the scenario: a gold and a besteffort tenant both
// spill onto the CXL expander, the expander drops mid-run, and the
// evacuation drains under the auditor. Per-quantum samples observe the
// drain order.
func qosEvacRun(t *testing.T, seed uint64) qosEvacResult {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.LargeAllocThreshold = 16 * sim.MB
	// The default 1 GB watermarks would drain the 128 MB DRAM and 256 MB
	// CXL tiers on their own and hide the evacuation ordering.
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 16 * sim.MB, vm.TierCXL: 16 * sim.MB}
	h := core.New(ccfg)
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Audit = true
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 128 * sim.MB},
		{ID: vm.TierCXL, Capacity: 256 * sim.MB},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	m := machine.New(mcfg, h)
	tr := m.EnableTenants()
	rng := sim.NewRand(seed)

	var gold machine.TenantSpec
	gold.Name, gold.Class = "gold", machine.Gold
	gold.Reserve[vm.TierDRAM] = 96 * sim.MB
	goldID, res := tr.Admit(gold, func(id vm.TenantID) machine.TenantApp {
		return startFleetApp(m, id, 192*sim.MB, rng)
	})
	if res != machine.Admitted {
		t.Fatalf("gold admit = %v", res)
	}
	var be machine.TenantSpec
	be.Name, be.Class = "be", machine.BestEffort
	beID, res := tr.Admit(be, func(id vm.TenantID) machine.TenantApp {
		return startFleetApp(m, id, 192*sim.MB, rng)
	})
	if res != machine.Admitted {
		t.Fatalf("besteffort admit = %v", res)
	}

	m.Run(1 * sim.Second)

	var r qosEvacResult
	r.goldAtOffline = m.AS.TenantPages(goldID, vm.TierCXL)
	r.beAtOffline = m.AS.TenantPages(beID, vm.TierCXL)
	if !m.OfflineTier(vm.TierCXL) {
		t.Fatal("CXL offline refused")
	}
	// Per-quantum drain observer: once the tier is offline, no gold page
	// may leave CXL while a besteffort page remains — besteffort ranks
	// strictly first in the evacuation order.
	const drain = 2 * sim.Second
	lastGold := r.goldAtOffline
	var watch func(now int64)
	watch = func(now int64) {
		g := m.AS.TenantPages(goldID, vm.TierCXL)
		b := m.AS.TenantPages(beID, vm.TierCXL)
		if g < lastGold && b > 0 {
			r.orderViolated = true
		}
		lastGold = g
		if b == 0 && !r.sawBEDry {
			r.sawBEDry = true
			r.goldWhenBEDry = g
		}
		if now+machine.Quantum < m.Clock.Now()+drain && g+b > 0 {
			m.Events.Schedule(now+machine.Quantum, watch)
		}
	}
	m.Events.Schedule(m.Clock.Now()+machine.Quantum, watch)
	m.Run(drain)

	for _, reg := range m.AS.Regions {
		r.cxlAfter += reg.Bytes(vm.TierCXL)
	}
	r.evacuations = m.FaultCounters().TierEvacuations
	return r
}

// Satellite interop: taking a tier offline on a tenanted machine
// evacuates by QoS class — every besteffort page leaves before the
// first gold page — and the drain runs to completion with the auditor
// checking tenant conservation every quantum (a violation panics).
func TestTierOfflineEvacuatesByQoSClass(t *testing.T) {
	r := qosEvacRun(t, 17)
	if r.goldAtOffline == 0 || r.beAtOffline == 0 {
		t.Fatalf("scenario needs both classes resident on CXL at offline: gold=%d be=%d",
			r.goldAtOffline, r.beAtOffline)
	}
	if r.orderViolated {
		t.Fatalf("a gold page left CXL while besteffort pages remained (gold=%d be=%d at offline)",
			r.goldAtOffline, r.beAtOffline)
	}
	if !r.sawBEDry {
		t.Fatalf("besteffort never fully drained off CXL")
	}
	if r.goldWhenBEDry == 0 {
		t.Fatalf("gold already gone when besteffort finished draining — order not observable")
	}
	if r.cxlAfter != 0 {
		t.Fatalf("%d MB still resident on the offline tier", r.cxlAfter/sim.MB)
	}
	if r.evacuations == 0 {
		t.Fatalf("no completed evacuation recorded")
	}
}

// tenantChaosRun composes a ChaosConfig (the seeded scheduler drives
// repeated CXL offline/online cycles) with a tenanted machine under the
// auditor, and returns the digest of its episode log, telemetry CSV
// (per-tenant series included) and fault counters.
func tenantChaosRun(t *testing.T, seed uint64) string {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.LargeAllocThreshold = 16 * sim.MB
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 16 * sim.MB, vm.TierCXL: 16 * sim.MB}
	h := core.New(ccfg)
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Audit = true
	mcfg.Faults = fault.Config{Chaos: fault.ChaosConfig{
		TierOfflineMTBF:     2 * sim.Second,
		TierOfflineDuration: 1 * sim.Second,
		OfflineTiers:        fault.OfflineSet(vm.TierCXL),
	}}
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: 128 * sim.MB},
		{ID: vm.TierCXL, Capacity: 256 * sim.MB},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	m := machine.New(mcfg, h)
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	tr := m.EnableTenants()
	rng := sim.NewRand(seed)
	for i, class := range []machine.QoSClass{machine.Gold, machine.BestEffort, machine.Silver} {
		spec := machine.TenantSpec{Name: fmt.Sprintf("t%d", i), Class: class}
		if _, res := tr.Admit(spec, func(id vm.TenantID) machine.TenantApp {
			return startFleetApp(m, id, 128*sim.MB, rng)
		}); res != machine.Admitted {
			t.Fatalf("tenant %d admit = %v", i, res)
		}
	}
	m.Run(8 * sim.Second)
	if m.FaultCounters().TierOfflineEvents == 0 {
		t.Fatalf("chaos scheduler never took the tier offline; FaultStats %+v", *m.FaultCounters())
	}
	var csv strings.Builder
	if err := tel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "tenant.1.") {
		t.Errorf("telemetry CSV missing per-tenant series")
	}
	return outcomeDigest(t, m, tel)
}

// tenantChaosPin is tenantChaosRun's digest at seed 99.
const tenantChaosPin = "e1527795c041005f"

// Satellite interop: ChaosConfig composed with the tenant table replays
// the pinned run — same seed, same scheduler-driven outages, same
// auditor → the same episode log, fault counters, and telemetry CSV
// (which covers the per-tenant series too).
func TestTenantChaosReplayByteIdentical(t *testing.T) {
	if got := tenantChaosRun(t, 99); got != tenantChaosPin {
		t.Errorf("tenant chaos run digest %s, pinned %s", got, tenantChaosPin)
	}
}
