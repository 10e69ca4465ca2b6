package vm

import "testing"

// Owned regions mirror every tier transition into the per-tenant table,
// and Unmap releases the whole charge (touched and untouched pages).
func TestTenantOccupancyCounters(t *testing.T) {
	as := NewAddressSpace(2 << 20)
	r1 := as.MapOwned("t1-a", 8<<21, 1) // 8 pages, tenant 1
	r2 := as.MapOwned("t2-a", 4<<21, 2) // 4 pages, tenant 2
	plain := as.Map("shared", 4<<21)    // untenanted

	if got := as.NumTenants(); got != 2 {
		t.Fatalf("NumTenants = %d, want 2", got)
	}
	if got := as.TenantPages(1, TierNone); got != 8 {
		t.Fatalf("tenant 1 TierNone = %d, want 8", got)
	}
	if got := as.TenantPages(2, TierNone); got != 4 {
		t.Fatalf("tenant 2 TierNone = %d, want 4", got)
	}

	as.SetTier(r1.PageAt(0), TierDRAM)
	as.SetTier(r1.PageAt(1), TierDRAM)
	as.SetTier(r1.PageAt(2), TierNVM)
	as.SetTier(r2.PageAt(0), TierNVM)
	as.SetTier(plain.PageAt(0), TierDRAM)

	if got := as.TenantPages(1, TierDRAM); got != 2 {
		t.Fatalf("tenant 1 DRAM = %d, want 2", got)
	}
	if got := as.TenantPages(1, TierNVM); got != 1 {
		t.Fatalf("tenant 1 NVM = %d, want 1", got)
	}
	if got := as.TenantPages(1, TierNone); got != 5 {
		t.Fatalf("tenant 1 TierNone = %d, want 5", got)
	}
	if got := as.TenantPages(2, TierNVM); got != 1 {
		t.Fatalf("tenant 2 NVM = %d, want 1", got)
	}
	// The untenanted region never touches the table.
	if got := as.TenantPages(0, TierDRAM); got != 0 {
		t.Fatalf("TenantNone DRAM = %d, want 0", got)
	}

	// Tier moves keep the charge with the owner.
	as.SetTier(r1.PageAt(2), TierDRAM)
	if got := as.TenantPages(1, TierDRAM); got != 3 {
		t.Fatalf("tenant 1 DRAM after promote = %d, want 3", got)
	}
	if got := as.TenantPages(1, TierNVM); got != 0 {
		t.Fatalf("tenant 1 NVM after promote = %d, want 0", got)
	}

	// Unmap releases the full charge and detaches the owner.
	as.Unmap(r1)
	for tier := Tier(0); tier < MaxTiers; tier++ {
		if got := as.TenantPages(1, tier); got != 0 {
			t.Fatalf("tenant 1 %v after Unmap = %d, want 0", tier, got)
		}
	}
	if r1.Owner() != TenantNone {
		t.Fatalf("unmapped region still owned by %d", r1.Owner())
	}
	// Tenant 2 is untouched by tenant 1's teardown.
	if got := as.TenantPages(2, TierNVM); got != 1 {
		t.Fatalf("tenant 2 NVM after peer Unmap = %d, want 1", got)
	}
}

// MapOwned with TenantNone degrades to a plain Map.
func TestMapOwnedNoneIsPlainMap(t *testing.T) {
	as := NewAddressSpace(2 << 20)
	r := as.MapOwned("anon", 4<<21, TenantNone)
	if r.Owner() != TenantNone {
		t.Fatalf("owner = %d, want TenantNone", r.Owner())
	}
	if as.NumTenants() != 0 {
		t.Fatalf("NumTenants = %d, want 0", as.NumTenants())
	}
	as.SetTier(r.PageAt(0), TierDRAM)
	if as.NumTenants() != 0 {
		t.Fatalf("SetTier on untenanted page grew the tenant table")
	}
}

// The tenant table grows to the largest tenant ID charged: a sparse ID
// gets zeroed slots below it, and its own counters follow SetTier.
func TestTenantCountsGrowWithRegistry(t *testing.T) {
	as := NewAddressSpace(2 << 20)
	r := as.MapOwned("grow", 2<<21, 7) // sparse ID: table grows to 7 slots
	if got := as.NumTenants(); got != 7 {
		t.Fatalf("NumTenants = %d, want 7", got)
	}
	as.SetTier(r.PageAt(0), TierCXL)
	if got := as.TenantPages(7, TierCXL); got != 1 {
		t.Fatalf("tenant 7 in CXL = %d, want 1", got)
	}
	if got := as.TenantPages(6, TierNone); got != 0 {
		t.Fatalf("sparse tenant 6 holds %d pages, want 0", got)
	}
}
