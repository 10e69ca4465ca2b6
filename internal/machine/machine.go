// Package machine is the simulated testbed: a single NUMA socket with 24
// cores, DRAM and NVM devices (plus an optional swap disk), and a
// deterministic, time-stepped execution engine. Workloads describe their memory behaviour as traffic components
// over page sets; tier managers (HeMem, Memory Mode, Nimble, static
// placement, PT-scan variants) translate components into device traffic and
// run background work; the machine solves a per-quantum contention model
// across devices and CPU cores and advances everything together.
//
// All times are simulated nanoseconds; nothing in the package consults the
// wall clock, so experiments are exactly reproducible.
package machine

import (
	"fmt"
	"math"
	"slices"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Dev indexes the memory devices in tier-table order (fastest first);
// resolve a tier's index through Machine.DevOf.
type Dev int

// MaxDevs bounds the per-device arrays threaded through the contention
// solver (CompCost, utilization, wear snapshots). It is deliberately a
// fixed array size rather than a slice so the per-quantum solver state
// stays allocation-free and the structs embedding it stay comparable.
const MaxDevs = 6

// TierDesc is one row of the machine's tier descriptor table: a memory
// tier with its identity and capacity; its device model is the tier's
// built-in one (mem.Builtin). The table is ordered fastest first and
// doubles as the migration graph — each tier's promotion neighbour is
// the previous row, its demotion neighbour the next row.
type TierDesc struct {
	// ID is one of the built-in tiers: DRAM, NVM, Disk or CXL.
	ID vm.TierID
	// Capacity in bytes. Zero falls back to the tier's default (DRAM,
	// NVM and disk have one; see ClassicTiers); CXL has none and must
	// set it.
	Capacity int64
	// Swap marks a swap-only backing tier (§3.4): placement never puts
	// fresh pages here and the policy only moves pages in explicitly.
	// Defaults to true for TierDisk when no tier in the table is marked.
	Swap bool
	// UEVictim marks media subject to uncorrectable-error injection.
	// Defaults to true for TierNVM when no tier in the table is marked.
	UEVictim bool
}

// TierDev maps a vm.Tier to this machine's device index; pages not yet
// placed (TierNone) and tiers absent from the table are charged as the
// second-fastest tier, the conservative choice (NVM on the classic
// testbed).
func (m *Machine) TierDev(t vm.Tier) Dev {
	if int(t) > 0 && int(t) < len(m.tierDev) {
		if d := m.tierDev[t]; d >= 0 {
			return Dev(d)
		}
	}
	return m.noneDev
}

// Component describes one access stream of a workload: a page set, how
// often an operation touches it, and how many bytes it reads/writes per
// touch. Workloads must describe their traffic with components whose page
// sets are mutually disjoint (overlapping popularity is expressed by
// splitting shares), which lets both the placement cost model and the
// Memory Mode cache model treat each set as a homogeneous zone.
type Component struct {
	// Set is the pages this stream touches, uniformly at random within
	// the set (or as a stream for Sequential patterns).
	Set *vm.PageSet
	// Share is the expected number of occurrences of this stream per
	// workload operation.
	Share float64
	// ReadBytes and WriteBytes are moved per occurrence.
	ReadBytes  int64
	WriteBytes int64
	// Pattern selects the device bandwidth/latency profile.
	Pattern mem.Pattern
	// Deps is the number of dependent (serialized) latency visits per
	// occurrence; 1 for a simple load, 2+ for pointer chases such as a
	// hash bucket walk. Zero means 1.
	Deps int
	// WriteLatencySensitive charges the device write latency per
	// occurrence. Most stores are posted and hide latency; flag this for
	// synchronous read-modify-write paths.
	WriteLatencySensitive bool
}

func (c Component) deps() float64 {
	if c.Deps <= 0 {
		return 1
	}
	return float64(c.Deps)
}

// Workload is a running application generating traffic.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Threads is the number of application threads it runs.
	Threads() int
	// Components returns the current traffic description; it is called
	// once per quantum and may change over time (e.g. a hot-set shift).
	Components() []Component
	// OnOps reports that the workload completed ops operations in the
	// quantum, at an average per-op latency of opTime ns. Workloads use
	// it to track progress and record latency distributions.
	//
	// OnOps runs inside the step's commit loop, between the PEBS sample
	// draws and the step's record flush, so it must not change any
	// page's Tier or ID (no faulting, migrating or remapping): the
	// flushed records read both from the drawn pages.
	OnOps(now int64, ops float64, opTime float64)
	// Done reports whether the workload has finished its run.
	Done() bool
}

// CompCost is the contention-free cost of one occurrence of a component,
// as produced by a tier manager's cost model.
type CompCost struct {
	// Time is the per-occurrence latency + transfer time in ns at zero
	// contention.
	Time float64
	// Bytes is the media bytes moved per occurrence, per [device][kind];
	// it drives wear accounting and device demand. Only the first
	// NumDevs entries are meaningful on a given machine.
	Bytes [MaxDevs][2]float64
	// Util is the device-seconds consumed per occurrence per
	// [device][kind], i.e. Bytes normalized by the pattern-appropriate
	// bandwidth ceiling. The solver sums Util×rate into device
	// utilization and throttles workloads through saturated devices.
	Util [MaxDevs][2]float64
}

// Manager is a tiered-memory management system under test.
type Manager interface {
	// Name identifies the manager in reports.
	Name() string
	// Attach wires the manager to the machine before the run starts.
	Attach(m *Machine)
	// PageIn places a freshly touched page (the userfaultfd
	// page-missing path): the manager must place it with
	// m.AS.SetTier.
	PageIn(p *vm.Page)
	// OnQuantum runs the manager's background work for one quantum.
	OnQuantum(now, dt int64)
	// ActiveThreads reports how many CPU cores the manager's background
	// threads consumed this quantum (may be fractional).
	ActiveThreads() float64
}

// wstate is the per-quantum solver state for one running workload; the
// machine keeps a reusable slice of these so Step allocates nothing.
type wstate struct {
	w     Workload
	meta  *workloadMeta
	comps []Component
	costs []CompCost
	keys  []costKey // keys[j] is the key costs[j] was priced under
	rate  float64   // ops/ns
	time  float64   // per-op ns (at achieved rate)
}

// costKey is everything a price reads (DESIGN.md §7): the component with
// Share zeroed (a price is per occurrence), its set's version and the
// machine's cost epoch. Equal keys price identically. An epoch is never
// 0, so the zero key matches nothing.
type costKey struct {
	c              Component
	version, epoch uint64
}

func newCostKey(c *Component, epoch uint64) costKey {
	k := costKey{c: *c, epoch: epoch}
	k.c.Share = 0
	if c.Set != nil {
		k.version = c.Set.Version()
	}
	return k
}

// branchMemo is one cached AppendBranches result and its key.
type branchMemo struct {
	key costKey
	br  []CostBranch
}

// workloadMeta is the per-workload bookkeeping (throughput series,
// cumulative ops) resolved once at AddWorkload, so the per-quantum commit
// path updates it through a pointer instead of a string-map lookup per
// workload per quantum.
type workloadMeta struct {
	w        Workload
	series   *sim.Series
	totalOps float64
	// tenant is the owning tenant when the workload was registered via
	// AddWorkloadFor; its per-op latencies feed that tenant's SLO
	// histogram. TenantNone for ordinary workloads.
	tenant vm.TenantID
}

// Releaser is implemented by managers that support region teardown:
// Release must drop all tracking state for the region. Machine.Unmap
// calls it once the region's queued moves are cancelled and before
// removing the region from the address space, which returns the pages'
// committed bytes.
type Releaser interface {
	Release(r *vm.Region)
}

// CostModel is implemented by managers that price traffic themselves
// (Memory Mode's DRAM cache) instead of by page placement; every other
// manager gets the placement model (PlacementCost and the per-tier
// branch split).
type CostModel interface {
	// ObserveTraffic is called once per step with each active component
	// and its achieved occurrence rate in occurrences/ns: a cache model
	// needs every stream's line rates to compute its occupancy.
	ObserveTraffic(now int64, comps []Component, occRates []float64)
	// ComponentCost prices one occurrence of c.
	ComponentCost(c Component) CompCost
	// ComponentBranches returns the latency outcomes of one occurrence
	// of c (Memory Mode's cache hit and miss).
	ComponentBranches(c Component) []CostBranch
	// CostEpoch lets the machine cache the two above (see costKey). It
	// only grows, and must grow whenever anything they read but the
	// component, its set and the devices' derates changes.
	CostEpoch() uint64
}

// SampleSource is implemented by managers that consume PEBS samples; the
// machine feeds their sampler from the traffic streams each quantum.
type SampleSource interface {
	Sampler() *pebs.Sampler
}

// MigrationObserver is implemented by managers that want a callback when a
// migration they enqueued completes.
type MigrationObserver interface {
	OnMigrated(p *vm.Page)
}

// Computes is implemented by workloads whose operations include CPU work
// beyond memory traffic (request parsing, network stack, transaction
// logic). ComputePerOp returns that service time in ns; it adds to the
// per-op cost alongside the memory components.
type Computes interface {
	ComputePerOp() float64
}

// RateLimited is implemented by workloads driven at a fixed offered load
// (e.g., FlexKVS latency runs at 30% load, Table 3): the machine caps the
// achieved rate at TargetRate (ops/ns; 0 means unlimited).
type RateLimited interface {
	TargetRate() float64
}

// CostBranch is one outcome of an access with its probability, used to
// build per-operation latency distributions (the FlexKVS percentile
// experiments, Tables 3–4).
type CostBranch struct {
	Prob float64
	Time float64 // ns
}

// cores is the testbed's core count: one socket of the paper's
// dual-socket Cascade Lake evaluation platform (§5). Application,
// manager and copy threads beyond it share the cores.
const cores = 24

// Quantum is the machine's step in sim-ns. Run and RunUntilDone advance
// one quantum at a time, cutting the last step short at their end, and
// background work that polls, such as page-table scans and tenant
// departure drains, polls at most once per quantum.
const Quantum = sim.Millisecond

// Config holds the testbed parameters (defaults mirror the paper's
// evaluation platform, §5).
type Config struct {
	PageSize int64
	Seed     uint64
	// Faults configures deterministic fault injection. The zero value
	// disables it entirely; see internal/fault.
	Faults fault.Config
	// Audit enables the runtime invariant auditor: every quantum the
	// machine verifies conservation invariants (occupancy counters vs
	// page state, the committed ledger vs resident bytes, migration-queue
	// consistency) and panics with a diagnostic dump on the first
	// violation. A pure observer — it draws no randomness and changes no
	// behavior, so audited runs are bit-identical to unaudited ones.
	Audit bool
	// Tiers declares the memory hierarchy, fastest first (e.g. DRAM,
	// CXL, NVM, disk). It is the only place tier capacities live; nil
	// means the classic DRAM/NVM/disk testbed at its default capacities
	// (see ClassicTiers).
	Tiers []TierDesc
}

// ClassicTiers is the tier table of the paper's testbed: DRAM, NVM (the
// uncorrectable-error victim) and a swap disk. A zero capacity falls
// back to that tier's default, so ClassicTiers(16*sim.GB, 0, 0) is the
// default testbed with 16 GB of DRAM.
func ClassicTiers(dram, nvm, disk int64) []TierDesc {
	return []TierDesc{
		{ID: vm.TierDRAM, Capacity: dram},
		{ID: vm.TierNVM, Capacity: nvm, UEVictim: true},
		{ID: vm.TierDisk, Capacity: disk, Swap: true},
	}
}

// Validate reports the first invalid parameter, or nil. Zero values are
// valid (they fall back to defaults in New).
func (c Config) Validate() error {
	if c.PageSize < 0 {
		return fmt.Errorf("machine: negative page size %d", c.PageSize)
	}
	if c.Tiers != nil && len(c.Tiers) == 0 {
		return fmt.Errorf("machine: empty tier table (use nil for the default testbed)")
	}
	seen := map[vm.TierID]bool{}
	for _, td := range c.Tiers {
		if td.ID == vm.TierNone {
			return fmt.Errorf("machine: TierNone cannot appear in the tier table")
		}
		if seen[td.ID] {
			return fmt.Errorf("machine: duplicate tier %v in table", td.ID)
		}
		seen[td.ID] = true
		if td.Capacity < 0 {
			return fmt.Errorf("machine: tier %v has negative capacity", td.ID)
		}
		b, ok := mem.Builtin(td.ID)
		if !ok {
			return fmt.Errorf("machine: unknown tier %v (valid: DRAM, NVM, disk, CXL)", td.ID)
		}
		if td.Capacity == 0 && b.DefaultCapacity == 0 {
			return fmt.Errorf("machine: tier %v has no default capacity; set Capacity", td.ID)
		}
	}
	if len(c.Tiers) > MaxDevs {
		return fmt.Errorf("machine: %d tiers exceed MaxDevs (%d)", len(c.Tiers), MaxDevs)
	}
	// Placement never puts a fresh page on a swap tier, and a lone disk
	// defaults to swap.
	if c.Tiers != nil && !slices.ContainsFunc(c.resolveTiers().Tiers, func(td TierDesc) bool { return !td.Swap }) {
		return fmt.Errorf("machine: every tier is swap-only, so fresh pages have nowhere to go")
	}
	// The injector derates the NVM device every quantum it is enabled.
	if c.Tiers != nil && !seen[vm.TierNVM] && c.Faults.Enabled() {
		return fmt.Errorf("machine: fault injection needs an NVM tier in the table")
	}
	return c.Faults.Validate()
}

// withDefaults fills unset fields one by one; Seed is kept as given (0 is
// a legitimate seed).
func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = DefaultConfig().PageSize
	}
	return c.resolveTiers()
}

// resolveTiers normalizes the tier table into a private copy: a nil table
// becomes the classic DRAM/NVM/disk chain, zero capacities fall back to
// their tier's default, and the Swap and UEVictim defaults are applied.
func (c Config) resolveTiers() Config {
	if c.Tiers == nil {
		c.Tiers = ClassicTiers(0, 0, 0)
	}
	tiers := make([]TierDesc, len(c.Tiers))
	copy(tiers, c.Tiers)
	c.Tiers = tiers
	anySwap, anyUE := false, false
	for i := range tiers {
		td := &tiers[i]
		if td.Capacity == 0 {
			b, _ := mem.Builtin(td.ID)
			td.Capacity = b.DefaultCapacity
		}
		anySwap = anySwap || td.Swap
		anyUE = anyUE || td.UEVictim
	}
	for i := range tiers {
		td := &tiers[i]
		if !anySwap && td.ID == vm.TierDisk {
			td.Swap = true
		}
		if !anyUE && td.ID == vm.TierNVM {
			td.UEVictim = true
		}
	}
	return c
}

// DefaultConfig is one socket of the paper's dual-socket Cascade Lake
// testbed: 24 cores, 192 GB DRAM, 768 GB Optane, 2 MB pages. Its tier
// table is the classic one with every capacity filled in.
func DefaultConfig() Config {
	return Config{
		PageSize: 2 * sim.MB,
		Seed:     1,
	}.resolveTiers()
}

// SetRates tracks the cumulative access integral of one page set, used by
// scanning-based managers to evaluate accessed/dirty bit probabilities
// lazily (per-page expected touches since a scanner's last pass).
type SetRates struct {
	// ReadIntegral and WriteIntegral are cumulative expected accesses
	// *per page* of the set since the start of the run.
	ReadIntegral  float64
	WriteIntegral float64
	// ReadRate and WriteRate are the current per-page access rates in
	// accesses/ns, from the last quantum.
	ReadRate  float64
	WriteRate float64
}

// Machine is the simulated host.
type Machine struct {
	Cfg    Config
	Clock  *sim.Clock
	Events *sim.EventQueue
	Rng    *sim.Rand

	// DRAM, NVM, and Disk are the classic testbed's devices, kept as
	// named fields for two-tier code; they are nil when the tier table
	// omits the corresponding tier. devs holds every device in table
	// order.
	DRAM *mem.Device
	NVM  *mem.Device
	Disk *mem.Device
	AS   *vm.AddressSpace

	devs []*mem.Device
	// seqBW is the tier table's hoisted sequential-bandwidth column:
	// per-device peak media bandwidth for [read, write] sequential
	// streams, captured at construction. Migration seeding divides by it
	// every quantum; only the throttle derate varies at runtime (see
	// seqBandwidth).
	seqBW [MaxDevs][2]float64
	// tierDev maps a TierID to its device index; -1 when absent.
	tierDev [vm.MaxTiers]int8
	// noneDev is the device unplaced pages are charged to (index 1 of
	// the chain — the conservative choice).
	noneDev Dev
	// fastest is the chain's top tier (DRAM on the classic testbed).
	fastest vm.TierID

	// mgr is the manager under test and cost its CostModel, or nil;
	// both change only through SetManager.
	mgr       Manager
	cost      CostModel
	Workloads []Workload
	Migrator  *Migrator

	// Injector drives deterministic fault injection; always non-nil
	// (disabled when Config.Faults is zero).
	Injector   *fault.Injector
	faultStats FaultStats

	// Tier offline/online lifecycle (chaos tier faults or programmatic
	// OfflineTier calls) and the replayable episode log.
	offline      [vm.MaxTiers]bool
	numOffline   int // set entries of offline
	offlineSince [vm.MaxTiers]int64
	evacDone     [vm.MaxTiers]bool
	episodes     []fault.Episode
	// epOpen holds, per tier, 1+index into episodes of its open
	// tier-offline episode (0 = none), so OnlineTier and the evacuation
	// sweep can patch End/EvacNs in place.
	epOpen [vm.MaxTiers]int

	// Invariant auditor (Config.Audit). auditTenant, auditCombos and
	// auditSets are Audit's reused per-tenant, per-(slot, tier) and
	// per-rate-set recount tables.
	auditing    bool
	auditsRun   int64
	auditTenant [][vm.MaxTiers]int
	auditCombos comboTally
	auditSets   []auditSet

	// tenants is the multi-tenant runtime (EnableTenants); nil on
	// single-tenant machines, which therefore skip every tenant branch.
	tenants *TenantRuntime

	rates     map[*vm.PageSet]*SetRates
	rateOrder []*vm.PageSet

	// stall accumulates per-thread stall time (TLB shootdowns) charged
	// by managers during the current quantum.
	stall int64

	// Per-quantum solver scratch, reused across Step calls so the hot
	// loop does not allocate per quantum.
	ws            []wstate
	obsComps      []Component
	obsRates      []float64
	pending       []pendingSample
	sampleScratch []pebs.Record

	// branchMemo caches AppendBranches results, replaced round-robin at
	// branchNext. Cost epochs start above epochBase; epochLast is the
	// last one handed out. costPriced/costReused back CostStats.
	branchMemo             [8]branchMemo
	branchNext             int
	epochBase, epochLast   uint64
	costPriced, costReused int64

	// Metrics
	wmeta      []*workloadMeta // parallel to Workloads
	telemetry  *Telemetry
	sampleEach int64
	lastSample int64
	faults     int64
}

// injectorSeedSalt separates the injector's RNG stream from the machine's
// main stream: fault decisions never perturb workload randomness, so a
// disabled injector leaves runs bit-identical to builds without one.
const injectorSeedSalt = 0x9e3779b97f4a7c15

// New builds a machine and attaches the manager. Zero-value config fields
// fall back to defaults (a fully zero config is the paper testbed); call
// Config.Validate to detect invalid (negative) parameters beforehand.
func New(cfg Config, mgr Manager) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		Cfg:        cfg,
		Clock:      sim.NewClock(),
		Events:     sim.NewEventQueue(),
		Rng:        sim.NewRand(cfg.Seed),
		AS:         vm.NewAddressSpace(cfg.PageSize),
		rates:      make(map[*vm.PageSet]*SetRates),
		sampleEach: 100 * sim.Millisecond,
	}
	m.devs = make([]*mem.Device, len(cfg.Tiers))
	for i := range m.tierDev {
		m.tierDev[i] = -1
	}
	for i, td := range cfg.Tiers {
		b, _ := mem.Builtin(td.ID)
		dev := mem.New(b.Spec(td.Capacity))
		m.devs[i] = dev
		if int(td.ID) < len(m.tierDev) {
			m.tierDev[td.ID] = int8(i)
		}
		switch td.ID {
		case vm.TierDRAM:
			m.DRAM = dev
		case vm.TierNVM:
			m.NVM = dev
		case vm.TierDisk:
			m.Disk = dev
		}
	}
	for i, dev := range m.devs {
		m.seqBW[i][mem.Read] = dev.Spec.Peak[mem.Read][mem.Sequential]
		m.seqBW[i][mem.Write] = dev.Spec.Peak[mem.Write][mem.Sequential]
	}
	m.noneDev = Dev(1)
	if len(m.devs) < 2 {
		m.noneDev = 0
	}
	m.fastest = cfg.Tiers[0].ID
	m.auditing = cfg.Audit
	m.Injector = fault.New(cfg.Faults, sim.NewRand(cfg.Seed^injectorSeedSalt))
	m.Migrator = NewMigrator(m)
	m.SetManager(mgr)
	return m
}

// SetManager makes mgr the machine's manager and attaches it. Every cost
// epoch it is priced under lies above the last one handed out, so no
// cached price or branch list outlives the manager it came from.
func (m *Machine) SetManager(mgr Manager) {
	m.mgr = mgr
	m.cost, _ = mgr.(CostModel)
	m.epochBase = m.epochLast
	mgr.Attach(m)
}

// Manager returns the manager under test.
func (m *Machine) Manager() Manager { return m.mgr }

// seqBandwidth returns the sequential media-bandwidth ceiling for device
// d from the hoisted tier-table column, applying the runtime throttle
// derate exactly as Device.EffectiveBandwidth would (peak first, derate
// multiply second, so the arithmetic is bit-identical).
func (m *Machine) seqBandwidth(d Dev, kind mem.Kind) float64 {
	if int(d) >= len(m.devs) {
		return m.Device(d).EffectiveBandwidth(kind, mem.Sequential)
	}
	bw := m.seqBW[d][kind]
	if f := m.Device(d).Derate(); f != 1 {
		bw *= f
	}
	return bw
}

// Device returns the device instance for index d; out-of-range indices
// resolve to the conservative charge device (NVM on the classic testbed).
func (m *Machine) Device(d Dev) *mem.Device {
	if d >= 0 && int(d) < len(m.devs) {
		return m.devs[d]
	}
	return m.devs[m.noneDev]
}

// NumDevs returns the number of devices in the tier table.
func (m *Machine) NumDevs() int { return len(m.devs) }

// TierTable returns the machine's resolved tier descriptor table,
// fastest first. Callers must not mutate it.
func (m *Machine) TierTable() []TierDesc { return m.Cfg.Tiers }

// TierAt returns the tier ID at device index d.
func (m *Machine) TierAt(d Dev) vm.TierID { return m.Cfg.Tiers[d].ID }

// DevOf returns the device index of tier t, or false if the tier is not
// in the table.
func (m *Machine) DevOf(t vm.TierID) (Dev, bool) {
	if int(t) > 0 && int(t) < len(m.tierDev) {
		if d := m.tierDev[t]; d >= 0 {
			return Dev(d), true
		}
	}
	return 0, false
}

// CapacityOf returns the capacity of tier t, or 0 if absent.
func (m *Machine) CapacityOf(t vm.TierID) int64 {
	if d, ok := m.DevOf(t); ok {
		return m.Cfg.Tiers[d].Capacity
	}
	return 0
}

// Committed returns the bytes committed to tier t: the pages resident
// there, plus queued moves into it, less queued moves out of it (a move is
// charged to its destination from Enqueue until it ends). It is the one
// occupancy ledger every manager's placement and watermark decisions read,
// kept incrementally by AddressSpace.SetTier and the Migrator; TierNone and
// out-of-range tiers read 0.
func (m *Machine) Committed(t vm.Tier) int64 {
	if t <= vm.TierNone || t >= vm.MaxTiers {
		return 0
	}
	return int64(m.AS.Count(t)+m.Migrator.inflight[t]) * m.Cfg.PageSize
}

// FastestTier returns the top of the migration chain.
func (m *Machine) FastestTier() vm.TierID { return m.fastest }

// AddWorkload registers a workload to run. The workload's metric slots
// (throughput series, ops counter) are resolved here, once, so Step never
// consults a name-keyed map.
func (m *Machine) AddWorkload(w Workload) {
	m.Workloads = append(m.Workloads, w)
	wm := &workloadMeta{w: w, series: &sim.Series{Name: w.Name()}}
	m.wmeta = append(m.wmeta, wm)
}

// StallAll charges every running application thread d nanoseconds of stall
// in the current quantum (TLB shootdown IPIs).
func (m *Machine) StallAll(d int64) { m.stall += d }

// Rates returns the access-integral tracker for set s, creating it if
// needed. Scanning managers snapshot integrals at pass boundaries.
func (m *Machine) Rates(s *vm.PageSet) *SetRates {
	r, ok := m.rates[s]
	if !ok {
		r = &SetRates{}
		m.rates[s] = r
		m.rateOrder = append(m.rateOrder, s)
	}
	return r
}

// RateSets returns every page set with tracked access rates, in first-seen
// order (deterministic). Scanning managers iterate these as the "zones"
// of managed memory.
func (m *Machine) RateSets() []*vm.PageSet { return m.rateOrder }

// Warm touches every mapped page once in address order, letting the
// manager place it (the paper's warm-up round: large ranges are allocated
// at start and pre-filled from disk). It also charges the one-time
// userfaultfd fault cost to the clock.
func (m *Machine) Warm() {
	n := 0
	for _, r := range m.AS.Regions {
		for i, np := 0, r.NumPages(); i < np; i++ {
			if p := r.PageAt(i); p.Tier == vm.TierNone {
				m.pageIn(p)
				n++
			}
		}
	}
	m.faults += int64(n)
	m.Clock.Advance(int64(n) * vm.FaultCost)
}

// TouchRange faults in pages [lo, hi) of region r: metadata materializes,
// the manager places any TierNone page, and the userfaultfd fault cost is
// charged as stall spread over the running threads (unlike Warm, which
// runs before the clock starts and advances it directly). Sparse
// workloads use it to fault in exactly the windows a traffic phase
// touches, keeping metadata O(touched pages). Returns the number of
// pages faulted.
func (m *Machine) TouchRange(r *vm.Region, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if n := r.NumPages(); hi > n {
		hi = n
	}
	faulted := 0
	for i := lo; i < hi; i++ {
		p := r.PageAt(i)
		if p.Tier != vm.TierNone {
			continue
		}
		m.pageIn(p)
		faulted++
	}
	if faulted > 0 {
		m.faults += int64(faulted)
		m.StallAll(int64(faulted) * vm.FaultCost)
	}
	return faulted
}

// pageIn lets the manager place freshly touched page p. A page placed on
// an offline tier is re-placed on the nearest online one, the rule the
// fallback evacuation follows, so no manager's first touch lands on a
// tier being drained, whether or not its placement reads liveness.
func (m *Machine) pageIn(p *vm.Page) {
	m.mgr.PageIn(p)
	if p.Tier == vm.TierNone {
		panic("machine: manager did not place page on PageIn")
	}
	if m.TierOffline(p.Tier) {
		if dst, ok := m.nearestOnline(p.Tier); ok {
			m.AS.SetTier(p, dst)
		}
	}
}

// Faults returns the number of page-missing faults taken so far.
func (m *Machine) Faults() int64 { return m.faults }

// AuditsRun returns how many per-quantum invariant audits have executed
// (0 unless the auditor is enabled).
func (m *Machine) AuditsRun() int64 { return m.auditsRun }

// Unmap tears down region r (munmap): the region's queued moves are
// cancelled, the manager releases its tracking (if it implements
// Releaser), the pages leave every page set they were in and every tier,
// which returns their committed bytes, and the region is removed from
// the address space.
func (m *Machine) Unmap(r *vm.Region) {
	m.Migrator.cancelRegion(r)
	if rel, ok := m.mgr.(Releaser); ok {
		rel.Release(r)
	}
	m.AS.Unmap(r)
	if m.auditing {
		if vs := m.auditUnmap(r); len(vs) > 0 {
			panic(m.auditDump(vs))
		}
	}
}

// Throughput returns the recorded ops/s series for workload name, or nil
// if no such workload is registered.
func (m *Machine) Throughput(name string) *sim.Series {
	for _, wm := range m.wmeta {
		if wm.w.Name() == name {
			return wm.series
		}
	}
	return nil
}

// TotalOps returns cumulative operations completed by workload name.
func (m *Machine) TotalOps(name string) float64 {
	for _, wm := range m.wmeta {
		if wm.w.Name() == name {
			return wm.totalOps
		}
	}
	return 0
}

// Run advances the machine by duration, one Quantum step at a time; the
// last step is cut short at the end.
func (m *Machine) Run(duration int64) {
	end := m.Clock.Now() + duration
	for m.Clock.Now() < end {
		m.Step(min(Quantum, end-m.Clock.Now()))
	}
}

// RunUntilDone advances until every workload reports Done, or until
// maxDuration elapses, to bound runaway experiments; it never runs past
// maxDuration.
func (m *Machine) RunUntilDone(maxDuration int64) {
	end := m.Clock.Now() + maxDuration
	for m.Clock.Now() < end && !m.allDone() {
		m.Step(min(Quantum, end-m.Clock.Now()))
	}
}

// allDone reports whether every workload has finished its run.
func (m *Machine) allDone() bool {
	for _, w := range m.Workloads {
		if !w.Done() {
			return false
		}
	}
	return true
}

// Step advances the clock by dt sim-ns: fire due events, compute
// workload rates under the contention model, account traffic (wear, PEBS
// samples, access-bit integrals), advance migrations, and run manager
// background work. Run and RunUntilDone step one Quantum at a time. A
// zero dt is a no-op; a negative dt panics before any state changes.
func (m *Machine) Step(dt int64) {
	if dt < 0 {
		panic(fmt.Sprintf("machine: Step(%d): negative step", dt))
	}
	if dt == 0 {
		return
	}
	now := m.Clock.Now()
	m.Events.RunDue(now)
	m.stepBody(now, dt)
}

// stepBody is Step's work after the due events have fired.
func (m *Machine) stepBody(now, dt int64) {
	m.applyFaults(now, dt)

	// Advance migrations first so completed moves are visible to this
	// quantum's costing, and so their bandwidth use seeds utilization.
	m.Migrator.advance(now, dt)
	m.offlineSweep(now)
	migMoved := m.Migrator.planned(dt)

	m.ws = m.ws[:0]
	appThreads := 0
	for wi, w := range m.Workloads {
		if w.Done() {
			continue
		}
		// Grow in place, keeping each slot's costs slice capacity.
		if n := len(m.ws); n < cap(m.ws) {
			m.ws = m.ws[:n+1]
		} else {
			m.ws = append(m.ws, wstate{})
		}
		s := &m.ws[len(m.ws)-1]
		s.w, s.meta, s.comps, s.rate, s.time = w, m.wmeta[wi], w.Components(), 0, 0
		appThreads += w.Threads()
	}
	ws := m.ws

	// CPU share: application threads contend with manager background
	// threads and migration copy threads for cores.
	bg := m.mgr.ActiveThreads() + m.Migrator.activeThreads()
	cpuShare := 1.0
	if total := float64(appThreads) + bg; total > cores {
		cpuShare = cores / total
	}

	// Cost each component and compute unconstrained rates.
	nd := Dev(len(m.devs))
	var util [MaxDevs][2]float64
	// Seed utilization with migration traffic (sequential streams). Only
	// the devices that exist are visited, and the sequential bandwidth
	// ceilings come from the tier table's hoisted column instead of a
	// per-quantum device-model lookup.
	for d := Dev(0); d < nd; d++ {
		mv := &migMoved[d]
		if mv.bytes == 0 {
			continue
		}
		util[mv.srcDev][mem.Read] += mv.bytes / float64(dt) / m.seqBandwidth(mv.srcDev, mem.Read)
		util[mv.dstDev][mem.Write] += mv.bytes / float64(dt) / m.seqBandwidth(mv.dstDev, mem.Write)
	}

	// Stalls charged by managers (TLB shootdowns) drain from a reservoir,
	// smoothed over ~half a second: a scan pass deposits its whole
	// shootdown cost at completion, but the IPIs really interleave with
	// the scan, so the slowdown is spread rather than delivered as a
	// brief near-total stall.
	const stallWindow = 500 * sim.Millisecond
	stallNow := m.stall * dt / stallWindow
	if stallNow < dt/100 && m.stall > 0 {
		// Drain small residues quickly instead of asymptotically.
		stallNow = m.stall
	}
	if max := dt * 95 / 100; stallNow > max {
		stallNow = max
	}
	m.stall -= stallNow
	stallFrac := float64(stallNow) / float64(dt)
	epoch := m.costEpoch()
	for i := range ws {
		s := &ws[i]
		if cap(s.costs) < len(s.comps) {
			s.costs = make([]CompCost, len(s.comps))
			s.keys = make([]costKey, len(s.comps))
		} else {
			s.costs = s.costs[:len(s.comps)]
			s.keys = s.keys[:len(s.comps)]
		}
		var opTime float64
		if comp, ok := s.w.(Computes); ok {
			opTime += comp.ComputePerOp()
		}
		for j := range s.comps {
			c := &s.comps[j]
			if k := newCostKey(c, epoch); k != s.keys[j] {
				m.costComponent(c, &s.costs[j])
				s.keys[j] = k
				m.costPriced++
			} else {
				m.costReused++
			}
			opTime += c.Share * s.costs[j].Time
		}
		if opTime <= 0 {
			opTime = 1
		}
		s.time = opTime
		s.rate = float64(s.w.Threads()) * cpuShare * (1 - stallFrac) / opTime
		if rl, ok := s.w.(RateLimited); ok {
			if target := rl.TargetRate(); target > 0 && s.rate > target {
				s.rate = target
			}
		}
		for j := range s.comps {
			for d := Dev(0); d < nd; d++ {
				for k := 0; k < 2; k++ {
					util[d][k] += s.rate * s.comps[j].Share * s.costs[j].Util[d][k]
				}
			}
		}
	}

	// Throttle each workload by its worst saturated device-kind.
	for i := range ws {
		s := &ws[i]
		factor := 1.0
		for d := Dev(0); d < nd; d++ {
			for k := 0; k < 2; k++ {
				if util[d][k] > 1 {
					// Does this workload use (d,k)?
					uses := false
					for j := range s.comps {
						if s.costs[j].Util[d][k] > 0 {
							uses = true
							break
						}
					}
					if uses && 1/util[d][k] < factor {
						factor = 1 / util[d][k]
					}
				}
			}
		}
		s.rate *= factor
		if factor > 0 {
			s.time /= factor
		}
	}

	// Commit: ops, wear, PEBS, access integrals. The sampler is resolved
	// once up front: a manager may implement SampleSource yet report no
	// sampler (a scan- or region-based tracker is active), which must
	// disable sample feeding rather than dereference nil per component.
	var sampler *pebs.Sampler
	if ss, ok := m.mgr.(SampleSource); ok {
		sampler = ss.Sampler()
	}
	obsComps := m.obsComps[:0]
	obsRates := m.obsRates[:0]
	for i := range ws {
		s := &ws[i]
		ops := s.rate * float64(dt)
		s.meta.totalOps += ops
		s.w.OnOps(now, ops, s.time)
		if m.tenants != nil && s.meta.tenant != vm.TenantNone {
			m.tenants.recordOps(s.meta.tenant, ops, s.time)
		}
		for j := range s.comps {
			c := &s.comps[j]
			occ := ops * c.Share
			if occ <= 0 || c.Set == nil || c.Set.Len() == 0 {
				continue
			}
			if m.cost != nil {
				obsComps = append(obsComps, *c)
				obsRates = append(obsRates, s.rate*c.Share)
			}
			// Wear: charge media bytes to devices.
			for d := Dev(0); d < nd; d++ {
				if b := s.costs[j].Bytes[d][mem.Read] * occ; b > 0 {
					m.Device(d).RecordBytes(mem.Read, b)
				}
				if b := s.costs[j].Bytes[d][mem.Write] * occ; b > 0 {
					m.Device(d).RecordBytes(mem.Write, b)
				}
			}
			// Access-bit integrals (per page of the set).
			r := m.Rates(c.Set)
			per := occ / float64(c.Set.Len())
			if c.ReadBytes > 0 {
				r.ReadIntegral += per
				r.ReadRate = per / float64(dt)
			}
			if c.WriteBytes > 0 {
				r.WriteIntegral += per
				r.WriteRate = per / float64(dt)
			}
			// PEBS sampling.
			if sampler != nil {
				m.feedSamples(sampler, c, occ)
			}
		}
	}

	if len(m.pending) > 0 {
		m.flushSamples(sampler.Buffer())
	}
	if m.cost != nil {
		m.cost.ObserveTraffic(now, obsComps, obsRates)
	}
	m.obsComps, m.obsRates = obsComps, obsRates
	m.mgr.OnQuantum(now, dt)

	// Record instantaneous throughput periodically.
	if now-m.lastSample >= m.sampleEach {
		for i := range ws {
			ws[i].meta.series.Append(now, ws[i].rate*1e9)
		}
		m.lastSample = now
	}
	if m.telemetry != nil {
		m.telemetry.sample(m, now, stallFrac)
	}
	if m.auditing {
		m.auditsRun++
		if vs := m.Audit(); len(vs) > 0 {
			panic(m.auditDump(vs))
		}
	}

	m.Clock.Advance(dt)
}

// pendingSample is one drawn PEBS sample awaiting its record: the ID of
// the page the sampled access touched and the counter class that fired.
type pendingSample struct {
	id    vm.PageID
	class pebs.Class
}

// feedSamples converts a component's traffic into PEBS samples: one load
// event per cache line read and one store event per cache line written,
// sampled at the manager's configured period. It only draws: each sampled
// page's ID is appended to m.pending, and flushSamples builds and pushes
// the records once the commit loop is done. Splitting the draw from the
// record build keeps the RNG-bound loop free of page lookups, so the
// build loop can issue its per-page loads back to back. The draws, and so
// the RNG stream, are exactly those of building each record as it is drawn.
func (m *Machine) feedSamples(s *pebs.Sampler, c *Component, occ float64) {
	// PEBS storm episodes multiply the sample inflow (counter
	// misconfiguration / interrupt pressure); the factor is 1 outside
	// storms and the multiply is skipped entirely then, keeping fault-free
	// arithmetic bit-identical.
	loadF := m.Injector.PEBSLoadFactor()
	ids := c.Set.IDs()
	setLen := len(ids)
	rng := m.Rng
	pending := m.pending
	if c.ReadBytes > 0 {
		lines := math.Ceil(float64(c.ReadBytes) / 64)
		n := occ * lines
		if loadF != 1 {
			n *= loadF
		}
		for k := s.Take(n, pebs.ClassLoad); k > 0; k-- {
			pending = append(pending, pendingSample{ids[rng.Intn(setLen)], pebs.ClassLoad})
		}
	}
	if c.WriteBytes > 0 {
		lines := math.Ceil(float64(c.WriteBytes) / 64)
		n := occ * lines
		if loadF != 1 {
			n *= loadF
		}
		for k := s.Take(n, pebs.ClassStore); k > 0; k-- {
			pending = append(pending, pendingSample{ids[rng.Intn(setLen)], pebs.ClassStore})
		}
	}
	m.pending = pending
}

// flushSamples builds the records for the step's pending samples, in draw
// order, and pushes them into buf in 256-record chunks. Nothing pops buf
// between the draws and the flush, so pushing the whole sequence here
// drops exactly the records per-component pushes would have dropped. The
// records are exact because nothing in the commit loop changes a page's
// Tier or ID (see Workload.OnOps).
func (m *Machine) flushSamples(buf *pebs.Buffer) {
	if m.sampleScratch == nil {
		m.sampleScratch = make([]pebs.Record, 256)
	}
	scratch := m.sampleScratch
	// Samples come from a few sets, each mostly within one region, so the
	// region of the last load sample is looked up again only when the next
	// one falls outside it.
	var r *vm.Region
	for rest := m.pending; len(rest) > 0; {
		batch := min(len(rest), len(scratch))
		for i, ps := range rest[:batch] {
			// PEBS distinguishes loads served by the top of the chain
			// from everything below it (local DRAM vs far memory).
			kind := pebs.Store
			if ps.class == pebs.ClassLoad {
				kind = pebs.LoadDRAM
				if r == nil || !r.Contains(ps.id) {
					r = m.AS.RegionOf(ps.id)
				}
				if r.Peek(r.Index(ps.id)).Tier != m.fastest {
					kind = pebs.LoadNVM
				}
			}
			scratch[i] = pebs.Record{Page: ps.id, Kind: kind}
		}
		buf.PushBatch(scratch[:batch])
		rest = rest[batch:]
	}
	m.pending = m.pending[:0]
}

// costComponent prices one component occurrence into cc, delegating to
// the manager's cost model if it has one. It takes pointers so the per-
// component solver loop copies neither the Component nor the CompCost.
func (m *Machine) costComponent(c *Component, cc *CompCost) {
	if m.cost != nil {
		*cc = m.cost.ComponentCost(*c)
		return
	}
	m.placementCost(c, cc)
}

// costEpoch is the epoch prices are cached under: the base SetManager
// chose + 1 + the devices' derate versions + the cost model's CostEpoch,
// counters that only grow.
func (m *Machine) costEpoch() uint64 {
	e := m.epochBase + 1
	for _, d := range m.devs {
		e += d.Version()
	}
	if m.cost != nil {
		e += m.cost.CostEpoch()
	}
	m.epochLast = e
	return e
}

// CostStats reports how many component prices the step's cost solve
// computed vs reused (see costKey); both are pure functions of the seed.
func (m *Machine) CostStats() (priced, reused int64) {
	return m.costPriced, m.costReused
}

// TLB model constants: a Cascade Lake-class dTLB holds ~1536 entries; a
// miss costs a page-table walk of ~60 ns on average.
const (
	tlbEntries = 1536
	tlbWalkNs  = 60.0
)

// TLBWalkCost returns the expected page-walk cost per occurrence for
// random accesses over set: sets larger than the TLB reach (1536 entries ×
// page size — 3 GB with 2 MB pages) miss almost always, which is why the
// paper tracks at huge-page granularity to begin with.
func (m *Machine) TLBWalkCost(set *vm.PageSet, pattern mem.Pattern) float64 {
	if pattern != mem.Random || set == nil {
		return 0
	}
	reach := float64(tlbEntries) * float64(m.Cfg.PageSize)
	span := float64(set.Len()) * float64(m.Cfg.PageSize)
	if span <= reach {
		return 0
	}
	return tlbWalkNs * (1 - reach/span)
}

// PlacementCost is the default cost model for placement-based managers:
// the component's set is split by current tier occupancy, and each side is
// charged the device's latency and streaming time at media granularity.
func (m *Machine) PlacementCost(c Component) (cc CompCost) { m.placementCost(&c, &cc); return }

// placementCost is PlacementCost without the per-call struct copies; the
// per-quantum solver loop calls it through costComponent with pointers
// into the workload's component and price slices.
func (m *Machine) placementCost(c *Component, cc *CompCost) {
	*cc = CompCost{}
	if c.Set == nil || c.Set.Len() == 0 {
		cc.Time = 1
		return
	}
	nd := Dev(len(m.devs))
	var fracs [MaxDevs]float64
	for d := Dev(0); d < nd; d++ {
		fracs[d] = c.Set.Frac(m.Cfg.Tiers[d].ID)
	}
	fracs[m.noneDev] += c.Set.Frac(vm.TierNone)
	walk := m.TLBWalkCost(c.Set, c.Pattern)
	for d := Dev(0); d < nd; d++ {
		f := fracs[d]
		if f == 0 {
			continue
		}
		dev := m.Device(d)
		cc.Time += f * walk
		if c.ReadBytes > 0 {
			cc.Time += f * c.deps() * dev.AccessTime(mem.Read, c.Pattern, c.ReadBytes/int64(c.deps()))
			media := float64(dev.MediaBytes(c.ReadBytes))
			cc.Bytes[d][mem.Read] += f * media
			cc.Util[d][mem.Read] += f * media / dev.PeakFor(mem.Read, c.Pattern, c.ReadBytes)
		}
		if c.WriteBytes > 0 {
			media := float64(dev.MediaBytes(c.WriteBytes))
			// Posted writes hide latency unless flagged; transfer
			// time is charged through utilization, with a small
			// per-store cost to keep ops from being free.
			t := media / dev.StreamRate(mem.Write, c.Pattern)
			if c.WriteLatencySensitive {
				t += dev.AccessTime(mem.Write, c.Pattern, c.WriteBytes)
			}
			cc.Time += f * t
			cc.Bytes[d][mem.Write] += f * media
			cc.Util[d][mem.Write] += f * media / dev.PeakFor(mem.Write, c.Pattern, c.WriteBytes)
		}
	}
}

// AppendBranches appends the latency outcomes of one occurrence of c under
// the active manager to dst and returns the extended slice: the cost
// model's own branches if it has one, otherwise the placement split, each
// tier's resident fraction of the set at that tier's cost. Per-op callers
// (workload OnOps hooks pricing latency distributions every quantum) reuse
// a scratch slice for dst. Results are cached under the component's
// costKey.
func (m *Machine) AppendBranches(dst []CostBranch, c Component) []CostBranch {
	k := newCostKey(&c, m.costEpoch())
	for i := range m.branchMemo {
		// The set pointer alone rules most entries out cheaply.
		if e := &m.branchMemo[i]; e.key.c.Set == k.c.Set && e.key == k {
			return append(dst, e.br...)
		}
	}
	e := &m.branchMemo[m.branchNext]
	m.branchNext = (m.branchNext + 1) % len(m.branchMemo)
	e.key, e.br = k, m.branches(e.br[:0], c)
	return append(dst, e.br...)
}

// branches appends c's latency outcomes to dst, uncached.
func (m *Machine) branches(dst []CostBranch, c Component) []CostBranch {
	if m.cost != nil {
		return append(dst, m.cost.ComponentBranches(c)...)
	}
	if c.Set == nil || c.Set.Len() == 0 {
		return append(dst, CostBranch{Prob: 1, Time: 1})
	}
	base := len(dst)
	for d := Dev(0); d < Dev(len(m.devs)); d++ {
		t := m.Cfg.Tiers[d].ID
		f := c.Set.Frac(t)
		if d == m.noneDev {
			f += c.Set.Frac(vm.TierNone)
		}
		if f == 0 {
			continue
		}
		dst = append(dst, CostBranch{Prob: f, Time: m.CostIn(c, t)})
	}
	if len(dst) == base {
		dst = append(dst, CostBranch{Prob: 1, Time: m.CostIn(c, m.Cfg.Tiers[m.noneDev].ID)})
	}
	return dst
}

// CostIn prices one occurrence of c assuming its pages reside in tier t.
func (m *Machine) CostIn(c Component, t vm.Tier) float64 {
	dev := m.Device(m.TierDev(t))
	time := m.TLBWalkCost(c.Set, c.Pattern)
	if c.ReadBytes > 0 {
		deps := c.deps()
		time += deps * dev.AccessTime(mem.Read, c.Pattern, c.ReadBytes/int64(deps))
	}
	if c.WriteBytes > 0 {
		time += float64(dev.MediaBytes(c.WriteBytes)) / dev.StreamRate(mem.Write, c.Pattern)
		if c.WriteLatencySensitive {
			time += dev.AccessTime(mem.Write, c.Pattern, c.WriteBytes)
		}
	}
	return time
}

// String describes the machine configuration.
func (m *Machine) String() string {
	s := fmt.Sprintf("machine{%d cores", cores)
	for _, d := range m.devs {
		s += fmt.Sprintf(", %s", d)
	}
	return s + fmt.Sprintf(", mgr=%s}", m.mgr.Name())
}
