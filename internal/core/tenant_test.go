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

func TestTenantTableLifecycle(t *testing.T) {
	_, h := tenantMachine(64 * sim.MB)
	if h.Tenants() != nil {
		t.Fatal("tenant table materialized before any admission")
	}
	spec := machine.TenantSpec{Name: "a", Class: machine.Gold}
	h.OnTenantAdmit(1, spec)
	tt := h.Tenants()
	if tt == nil || tt.NumTenants() != 1 || tt.ActiveCount() != 1 {
		t.Fatalf("admission not recorded: %+v", tt)
	}
	if got, ok := tt.SpecOf(1); !ok || got != spec {
		t.Fatalf("SpecOf(1) = %+v, %v", got, ok)
	}
	// Sparse admission grows the table; gaps stay inactive.
	h.OnTenantAdmit(3, machine.TenantSpec{Name: "c", Class: machine.BestEffort})
	if tt.NumTenants() != 3 || tt.ActiveCount() != 2 {
		t.Fatalf("sparse admit: tenants=%d active=%d", tt.NumTenants(), tt.ActiveCount())
	}
	if _, ok := tt.SpecOf(2); ok {
		t.Fatal("never-admitted id 2 reported active")
	}
	h.OnTenantDepart(1)
	if _, ok := tt.SpecOf(1); ok {
		t.Fatal("departed tenant still reported active")
	}
	if tt.ActiveCount() != 1 {
		t.Fatalf("ActiveCount after depart = %d", tt.ActiveCount())
	}
}

// A hard DRAM cap must bound first-touch placement: the capped tenant's
// overflow lands on NVM even while DRAM has free space.
func TestTenantHardCapBoundsPlacement(t *testing.T) {
	m, h := tenantMachine(256 * sim.MB)
	cap := int64(32 * sim.MB)
	spec := machine.TenantSpec{Name: "capped", Class: machine.Gold}
	spec.Cap[vm.TierDRAM] = cap
	h.OnTenantAdmit(1, spec)
	m.AS.MapOwned("capped-data", 128*sim.MB, 1)
	m.Warm()

	if got := m.AS.TenantBytes(1, vm.TierDRAM); got > cap {
		t.Fatalf("capped tenant holds %d bytes of DRAM, cap %d", got, cap)
	}
	if got := m.AS.TenantBytes(1, vm.TierNVM); got == 0 {
		t.Fatal("capped tenant's overflow never reached NVM")
	}
	// The cap must hold under migration pressure too, not just at
	// first touch.
	m.Run(50 * sim.Millisecond)
	if got := m.AS.TenantBytes(1, vm.TierDRAM); got > cap {
		t.Fatalf("migration pushed capped tenant to %d bytes of DRAM, cap %d", got, cap)
	}
}

// Under DRAM pressure, watermark demotion must land on the
// over-reservation besteffort tenant and leave the under-reservation
// gold tenant's resident set alone, even though besteffort's pages sit
// at the front of the cold FIFO (it mapped and faulted first).
func TestTenantDemotionPrefersBestEffort(t *testing.T) {
	m, h := tenantMachine(64 * sim.MB)
	gold := machine.TenantSpec{Name: "gold", Class: machine.Gold}
	gold.Reserve[vm.TierDRAM] = 48 * sim.MB
	be := machine.TenantSpec{Name: "be", Class: machine.BestEffort}
	h.OnTenantAdmit(1, be)
	h.OnTenantAdmit(2, gold)
	// Besteffort faults first and grabs most of DRAM; gold's region
	// mostly lands on NVM behind it.
	m.AS.MapOwned("be-data", 48*sim.MB, 1)
	m.AS.MapOwned("gold-data", 48*sim.MB, 2)
	m.Warm()
	beBefore := m.AS.TenantBytes(1, vm.TierDRAM)
	goldBefore := m.AS.TenantBytes(2, vm.TierDRAM)
	if beBefore == 0 || goldBefore == 0 {
		t.Fatalf("setup: be=%d gold=%d bytes in DRAM after warm", beBefore, goldBefore)
	}
	m.Run(100 * sim.Millisecond)

	bd := m.AS.TenantBytes(1, vm.TierDRAM)
	gd := m.AS.TenantBytes(2, vm.TierDRAM)
	if bd >= beBefore {
		t.Fatalf("watermark pressure never demoted besteffort (still %d of %d bytes)", bd, beBefore)
	}
	if gd < goldBefore {
		t.Fatalf("demotion took %d bytes from under-reservation gold with besteffort available", goldBefore-gd)
	}
}
