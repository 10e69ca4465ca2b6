package core_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// tenantMachine builds a DRAM+NVM machine with a small DRAM tier so
// tenant regions contend for fast memory, with the large-allocation
// threshold lowered so the test regions are manager-tracked.
func tenantMachine(dram int64) (*machine.Machine, *core.HeMem) {
	ccfg := core.DefaultConfig()
	ccfg.LargeAllocThreshold = 16 * sim.MB
	// The defaults target 1 GB free — more than these test tiers hold,
	// which would drain DRAM entirely with no traffic to promote.
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 8 * sim.MB}
	h := core.New(ccfg)
	mcfg := machine.DefaultConfig()
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: dram},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	return machine.New(mcfg, h), h
}

// regionApp is a tenant app that owns one untouched region and
// generates no traffic.
type regionApp struct{ r *vm.Region }

func (a regionApp) Stop()                 {}
func (a regionApp) Regions() []*vm.Region { return []*vm.Region{a.r} }

// admitRegion admits spec through the machine's tenant runtime; the
// tenant's app maps a size-byte region named after it and touches
// nothing.
func admitRegion(t *testing.T, m *machine.Machine, spec machine.TenantSpec, size int64) (vm.TenantID, *vm.Region) {
	t.Helper()
	var r *vm.Region
	id, res := m.EnableTenants().Admit(spec, func(id vm.TenantID) machine.TenantApp {
		r = m.AS.MapOwned(spec.Name+"-data", size, id)
		return regionApp{r}
	})
	if res != machine.Admitted {
		t.Fatalf("admit %s = %v", spec.Name, res)
	}
	return id, r
}

// The manager's tenant view is the machine runtime's: a spec counts from
// admission, through the drain window after Depart (the app has stopped
// but a page of the tenant is still mid-migration), until the departure
// completes; never-admitted and departed IDs have none.
func TestTenantTableLifecycle(t *testing.T) {
	m, _ := tenantMachine(64 * sim.MB)
	tr := m.EnableTenants()
	if _, ok := tr.Admission(1); ok || tr.NumTenants() != 0 {
		t.Fatal("an admission exists before any Admit")
	}
	spec := machine.TenantSpec{Name: "a", Class: machine.Gold}
	spec.Cap[vm.TierDRAM] = 32 * sim.MB
	a, ra := admitRegion(t, m, spec, 32*sim.MB)
	if got, ok := tr.Admission(a); !ok || got != spec {
		t.Fatalf("Admission(%d) = %+v, %v", a, got, ok)
	}
	c, _ := admitRegion(t, m, machine.TenantSpec{Name: "c", Class: machine.BestEffort}, 32*sim.MB)
	if tr.NumTenants() != 2 {
		t.Fatalf("NumTenants = %d after two admissions", tr.NumTenants())
	}
	if _, ok := tr.Admission(c + 1); ok {
		t.Fatalf("never-admitted id %d has an admission", c+1)
	}
	m.Warm()

	// Drain window: one of a's pages is queued to move when it departs.
	p := ra.PageAt(0)
	dst := vm.TierNVM
	if p.Tier == vm.TierNVM {
		dst = vm.TierDRAM
	}
	if !m.Migrator.Enqueue(p, dst) {
		t.Fatalf("could not queue page %d %v→%v", p.ID, p.Tier, dst)
	}
	tr.Depart(a)
	if tr.Active(a) || tr.Departed(a) {
		t.Fatalf("after Depart: active=%v departed=%v, want draining", tr.Active(a), tr.Departed(a))
	}
	if got, ok := tr.Admission(a); !ok || got != spec {
		t.Fatalf("draining tenant lost its admission: %+v, %v", got, ok)
	}
	for !tr.Departed(a) {
		if m.Clock.Now() > sim.Second {
			t.Fatal("departure never completed")
		}
		m.Run(10 * sim.Millisecond)
	}
	if _, ok := tr.Admission(a); ok {
		t.Fatal("departed tenant still has an admission")
	}
	if _, ok := tr.Admission(c); !ok {
		t.Fatal("tenant c lost its admission when a departed")
	}
}

// A HeMem attached after the runtime admitted a tenant (the manager swap
// fig8 makes) still enforces that tenant's hard cap: its selectors read
// the runtime, not admissions they were told about.
func TestTenantAdmittedBeforeAttach(t *testing.T) {
	m, _ := tenantMachine(256 * sim.MB)
	cap := int64(32 * sim.MB)
	spec := machine.TenantSpec{Name: "capped", Class: machine.Gold}
	spec.Cap[vm.TierDRAM] = cap
	id, _ := admitRegion(t, m, spec, 128*sim.MB)

	ccfg := core.DefaultConfig()
	ccfg.LargeAllocThreshold = 16 * sim.MB
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 8 * sim.MB}
	h := core.New(ccfg)
	m.SetManager(h)
	m.Warm()
	if got := m.AS.TenantBytes(id, vm.TierDRAM); got > cap {
		t.Fatalf("capped tenant holds %d bytes of DRAM, cap %d", got, cap)
	}
	if got := m.AS.TenantBytes(id, vm.TierNVM); got == 0 {
		t.Fatal("capped tenant's overflow never reached NVM")
	}
}

// A hard DRAM cap must bound first-touch placement: the capped tenant's
// overflow lands on NVM even while DRAM has free space.
func TestTenantHardCapBoundsPlacement(t *testing.T) {
	m, _ := tenantMachine(256 * sim.MB)
	cap := int64(32 * sim.MB)
	spec := machine.TenantSpec{Name: "capped", Class: machine.Gold}
	spec.Cap[vm.TierDRAM] = cap
	id, _ := admitRegion(t, m, spec, 128*sim.MB)
	m.Warm()

	if got := m.AS.TenantBytes(id, vm.TierDRAM); got > cap {
		t.Fatalf("capped tenant holds %d bytes of DRAM, cap %d", got, cap)
	}
	if got := m.AS.TenantBytes(id, vm.TierNVM); got == 0 {
		t.Fatal("capped tenant's overflow never reached NVM")
	}
	// The cap must hold under migration pressure too, not just at
	// first touch.
	m.Run(50 * sim.Millisecond)
	if got := m.AS.TenantBytes(id, vm.TierDRAM); got > cap {
		t.Fatalf("migration pushed capped tenant to %d bytes of DRAM, cap %d", got, cap)
	}
}

// Under DRAM pressure, watermark demotion must land on the
// over-reservation besteffort tenant and leave the under-reservation
// gold tenant's resident set alone, even though besteffort's pages sit
// at the front of the cold FIFO (it mapped and faulted first).
func TestTenantDemotionPrefersBestEffort(t *testing.T) {
	m, _ := tenantMachine(64 * sim.MB)
	gold := machine.TenantSpec{Name: "gold", Class: machine.Gold}
	gold.Reserve[vm.TierDRAM] = 48 * sim.MB
	be := machine.TenantSpec{Name: "be", Class: machine.BestEffort}
	// Besteffort faults first and grabs most of DRAM; gold's region
	// mostly lands on NVM behind it.
	beID, _ := admitRegion(t, m, be, 48*sim.MB)
	goldID, _ := admitRegion(t, m, gold, 48*sim.MB)
	m.Warm()
	beBefore := m.AS.TenantBytes(beID, vm.TierDRAM)
	goldBefore := m.AS.TenantBytes(goldID, vm.TierDRAM)
	if beBefore == 0 || goldBefore == 0 {
		t.Fatalf("setup: be=%d gold=%d bytes in DRAM after warm", beBefore, goldBefore)
	}
	m.Run(100 * sim.Millisecond)

	bd := m.AS.TenantBytes(beID, vm.TierDRAM)
	gd := m.AS.TenantBytes(goldID, vm.TierDRAM)
	if bd >= beBefore {
		t.Fatalf("watermark pressure never demoted besteffort (still %d of %d bytes)", bd, beBefore)
	}
	if gd < goldBefore {
		t.Fatalf("demotion took %d bytes from under-reservation gold with besteffort available", goldBefore-gd)
	}
}
