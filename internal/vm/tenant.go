package vm

// Tenant ownership of regions. A TenantID tags a Region with the tenant
// it is charged to; the AddressSpace mirrors every tier transition of an
// owned page into a per-tenant, per-tier occupancy table (the same
// counters as the per-region and per-set ones). Untenanted regions —
// everything created through Map — never touch the table, so the
// zero-tenant path is byte-identical to a build without tenancy.

// TenantID identifies a tenant within an AddressSpace. IDs are dense and
// start at 1; TenantNone (0) marks untenanted regions.
type TenantID int32

// TenantNone is the zero TenantID: the region is not charged to any
// tenant.
const TenantNone TenantID = 0

// MapOwned creates a region like Map and charges it to the given tenant:
// all pages start in the tenant's TierNone count and follow every
// SetTier transition until Unmap releases the whole charge. A TenantNone
// owner degrades to a plain Map.
func (a *AddressSpace) MapOwned(name string, size int64, owner TenantID) *Region {
	r := a.Map(name, size)
	if owner != TenantNone {
		r.owner = owner
		a.chargeTenant(owner, TierNone, r.n)
	}
	return r
}

// Owner returns the tenant this region is charged to (TenantNone for
// untenanted regions).
func (r *Region) Owner() TenantID { return r.owner }

// NumTenants returns the number of tenant IDs ever charged in this
// address space (IDs run 1..NumTenants; departed tenants keep their
// slot, zeroed).
func (a *AddressSpace) NumTenants() int { return len(a.tenants) }

// TenantPages returns how many pages tenant id currently holds in tier
// t. Unknown IDs read as zero.
func (a *AddressSpace) TenantPages(id TenantID, t Tier) int {
	if id <= 0 || int(id) > len(a.tenants) {
		return 0
	}
	return a.tenants[id-1][t]
}

// TenantBytes returns tenant id's resident bytes in tier t.
func (a *AddressSpace) TenantBytes(id TenantID, t Tier) int64 {
	return int64(a.TenantPages(id, t)) * a.PageSize
}

// bumpTenant moves one owned page's charge from tier `from` to tier
// `to`.
func (a *AddressSpace) bumpTenant(id TenantID, from, to Tier) {
	a.tenantCounts(id).bump(from, to)
}

// chargeTenant adds n pages (possibly negative) to tenant id's count in
// tier t — the bulk entry/exit path used by MapOwned and Unmap.
func (a *AddressSpace) chargeTenant(id TenantID, t Tier, n int) {
	a.tenantCounts(id)[t] += n
}

// tenantCounts returns tenant id's counters, growing the table for newly
// seen IDs.
func (a *AddressSpace) tenantCounts(id TenantID) *tierCounts {
	for int(id) > len(a.tenants) {
		a.tenants = append(a.tenants, tierCounts{})
	}
	return &a.tenants[id-1]
}
