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
	"reflect"
	"slices"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// Dev indexes the memory devices in tier-table order (fastest first).
// The named constants are the indices of the classic DRAM/NVM/disk
// testbed; machines built from an explicit Config.Tiers table may lay
// devices out differently — resolve indices through Machine.DevOf.
type Dev int

const (
	DevDRAM Dev = iota
	DevNVM
	DevDisk
)

// MaxDevs bounds the per-device arrays threaded through the contention
// solver (CompCost, utilization, wear snapshots). It is deliberately a
// fixed array size rather than a slice so the per-quantum solver state
// stays allocation-free and the structs embedding it stay comparable.
const MaxDevs = 6

// TierDesc is one row of the machine's tier descriptor table: a memory
// tier with its identity, capacity, and device model. The table is
// ordered fastest first and doubles as the migration graph — each tier's
// promotion neighbour is the previous row, its demotion neighbour the
// next row.
type TierDesc struct {
	// ID is the tier's identity in vm's tier table.
	ID vm.TierID
	// Capacity in bytes. Zero falls back to the default capacity of the
	// built-in tiers (DRAM, NVM, disk; see ClassicTiers).
	Capacity int64
	// Spec optionally overrides the device model registered for ID in
	// the mem registry.
	Spec *mem.Spec
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
	// page-missing path): the manager must call p.SetTier.
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
// machine's cost epoch. Equal keys price identically. A caching epoch is
// never 0, so the zero key matches nothing.
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

// epochState is what costEpoch remembers of the manager it last saw.
type epochState struct {
	mgr        Manager
	comparable bool        // mgr's type supports ==
	epocher    CostEpocher // mgr as a CostEpocher, or nil
	noCache    bool        // mgr prices itself but is no CostEpocher
	base, last uint64      // epochs start above base; last was handed out
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
	// hinter caches the PhaseHinter type assertion so the adaptive
	// horizon scan does not re-assert per step; nil when w gives no
	// phase hints.
	hinter PhaseHinter
	// tenant is the owning tenant when the workload was registered via
	// AddWorkloadFor; its per-op latencies feed that tenant's SLO
	// histogram. TenantNone for ordinary workloads.
	tenant vm.TenantID
}

// Releaser is implemented by managers that support region teardown:
// Release must drop all tracking state for the region and return its
// committed memory to the free pools. Machine.Unmap calls it before
// removing the region from the address space.
type Releaser interface {
	Release(r *vm.Region)
}

// CostModeler is implemented by managers that price traffic themselves
// (Memory Mode's DRAM cache). Managers that don't implement it get the
// default placement-based model. It is cached only if also a CostEpocher.
type CostModeler interface {
	ComponentCost(c Component) CompCost
}

// CostEpocher lets the machine cache a CostModeler's prices and a
// Brancher's branches (see costKey). CostEpoch only grows, and must grow
// whenever anything they read but the component, its set and the devices'
// derates changes.
type CostEpocher interface {
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

// Brancher is implemented by managers whose cost model has non-placement
// branches (Memory Mode's cache hit/miss). Placement managers get the
// default per-tier split. It is cached only if also a CostEpocher.
type Brancher interface {
	ComponentBranches(c Component) []CostBranch
}

// TrafficObserver is implemented by managers that model traffic globally
// (Memory Mode's cache needs every stream's line rates to compute
// steady-state occupancy). The machine calls it once per quantum with each
// active component and its achieved occurrence rate in occurrences/ns.
type TrafficObserver interface {
	ObserveTraffic(now int64, comps []Component, occRates []float64)
}

// Config holds the testbed parameters (defaults mirror the paper's
// evaluation platform, §5).
type Config struct {
	Cores    int
	PageSize int64
	Quantum  int64
	Seed     uint64
	// Faults configures deterministic fault injection. The zero value
	// disables it entirely; see internal/fault.
	Faults fault.Config
	// Audit enables the runtime invariant auditor: every quantum the
	// machine verifies conservation invariants (occupancy counters vs
	// page state, manager used[] vs resident bytes, migration-queue
	// consistency) and panics with a diagnostic dump on the first
	// violation. A pure observer — it draws no randomness and changes no
	// behavior, so audited runs are bit-identical to unaudited ones.
	Audit bool
	// AdaptiveQuantum switches Run/RunUntilDone to event-driven stepping:
	// while the machine is quiescent (no traffic occurrences possible, no
	// queued migrations, no stall residue, no fault injection, no offline
	// tier), a step stretches from the fixed quantum to the next
	// interesting instant — the earliest due event (policy ticks, chaos
	// episodes), throughput-sample or telemetry instant, or hinted
	// traffic-phase boundary — accumulating ops analytically over the
	// span. Off by default: the fixed cadence is pinned by the golden
	// outputs. Direct Step calls are unaffected.
	AdaptiveQuantum bool
	// Tiers declares the memory hierarchy, fastest first (e.g. DRAM,
	// CXL, NVM, disk). It is the only place tier capacities live; nil
	// means the classic DRAM/NVM/disk testbed at its default capacities
	// (see ClassicTiers).
	Tiers []TierDesc
}

// Default capacities of the built-in tiers: one socket of the paper's
// testbed (192 GB DRAM, 768 GB Optane) plus a swap disk (§3.4).
const (
	defaultDRAM = 192 * sim.GB
	defaultNVM  = 768 * sim.GB
	defaultDisk = 4 * sim.TB
)

// defaultCapacity is the capacity a built-in tier falls back to when its
// table row leaves Capacity zero; other tiers keep zero (their device
// model decides).
func defaultCapacity(t vm.TierID) int64 {
	switch t {
	case vm.TierDRAM:
		return defaultDRAM
	case vm.TierNVM:
		return defaultNVM
	case vm.TierDisk:
		return defaultDisk
	}
	return 0
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
	if c.Cores < 0 {
		return fmt.Errorf("machine: negative core count %d", c.Cores)
	}
	if c.PageSize < 0 {
		return fmt.Errorf("machine: negative page size %d", c.PageSize)
	}
	if c.Quantum < 0 {
		return fmt.Errorf("machine: negative quantum %d", c.Quantum)
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
		if td.Spec == nil {
			if _, ok := mem.ModelFor(td.ID); !ok {
				return fmt.Errorf("machine: tier %v has no registered device model and no explicit spec", td.ID)
			}
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
	def := DefaultConfig()
	if c.Cores == 0 {
		c.Cores = def.Cores
	}
	if c.PageSize == 0 {
		c.PageSize = def.PageSize
	}
	if c.Quantum == 0 {
		c.Quantum = def.Quantum
	}
	return c.resolveTiers()
}

// resolveTiers normalizes the tier table into a private copy: a nil table
// becomes the classic DRAM/NVM/disk chain, zero capacities of built-in
// tiers fall back to their defaults, and the Swap and UEVictim defaults
// are applied.
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
			td.Capacity = defaultCapacity(td.ID)
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
// testbed: 24 cores, 192 GB DRAM, 768 GB Optane, 2 MB pages.
func DefaultConfig() Config {
	return Config{
		Cores:    24,
		PageSize: 2 * sim.MB,
		Quantum:  sim.Millisecond,
		Seed:     1,
		Tiers:    ClassicTiers(defaultDRAM, defaultNVM, defaultDisk),
	}
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

	Mgr       Manager
	Workloads []Workload
	Migrator  *Migrator

	// Injector drives deterministic fault injection; always non-nil
	// (disabled when Config.Faults is zero).
	Injector   *fault.Injector
	faultStats FaultStats

	// Tier offline/online lifecycle (chaos tier faults or programmatic
	// OfflineTier calls) and the replayable episode log.
	offline      [vm.MaxTiers]bool
	offlineSince [vm.MaxTiers]int64
	evacDone     [vm.MaxTiers]bool
	episodes     []fault.Episode
	// epOpen holds, per tier, 1+index into episodes of its open
	// tier-offline episode (0 = none), so OnlineTier and the evacuation
	// sweep can patch End/EvacNs in place.
	epOpen [vm.MaxTiers]int

	// Invariant auditor (Config.Audit or SetAuditAll). auditTenant is
	// Audit's reused per-tenant recount table.
	auditing    bool
	auditsRun   int64
	auditTenant [][vm.MaxTiers]int

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
	// branchNext. costPriced/costReused back CostStats.
	branchMemo             [8]branchMemo
	branchNext             int
	epochs                 epochState
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
		Mgr:        mgr,
		rates:      make(map[*vm.PageSet]*SetRates),
		sampleEach: 100 * sim.Millisecond,
	}
	m.devs = make([]*mem.Device, len(cfg.Tiers))
	for i := range m.tierDev {
		m.tierDev[i] = -1
	}
	for i, td := range cfg.Tiers {
		var dev *mem.Device
		if td.Spec != nil {
			spec := *td.Spec
			if td.Capacity != 0 {
				spec.Capacity = td.Capacity
			}
			dev = mem.New(spec)
		} else {
			var err error
			dev, err = mem.NewFor(td.ID, td.Capacity)
			if err != nil {
				panic(err)
			}
		}
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
	m.auditing = cfg.Audit || auditAll
	m.Injector = fault.New(cfg.Faults, sim.NewRand(cfg.Seed^injectorSeedSalt))
	m.Migrator = NewMigrator(m)
	mgr.Attach(m)
	return m
}

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

// DeviceFor returns the device backing tier t (the conservative charge
// device for TierNone and absent tiers).
func (m *Machine) DeviceFor(t vm.TierID) *mem.Device { return m.devs[m.TierDev(t)] }

// CapacityOf returns the capacity of tier t, or 0 if absent.
func (m *Machine) CapacityOf(t vm.TierID) int64 {
	if d, ok := m.DevOf(t); ok {
		return m.Cfg.Tiers[d].Capacity
	}
	return 0
}

// FastestTier returns the top of the migration chain.
func (m *Machine) FastestTier() vm.TierID { return m.fastest }

// FasterTier returns the promotion neighbour of tier t — the next
// faster tier in the chain — or false at the top (or if t is absent).
func (m *Machine) FasterTier(t vm.TierID) (vm.TierID, bool) {
	d, ok := m.DevOf(t)
	if !ok || d == 0 {
		return vm.TierNone, false
	}
	return m.Cfg.Tiers[d-1].ID, true
}

// SlowerTier returns the demotion neighbour of tier t — the next slower
// tier in the chain — or false at the bottom (or if t is absent).
func (m *Machine) SlowerTier(t vm.TierID) (vm.TierID, bool) {
	d, ok := m.DevOf(t)
	if !ok || int(d) >= len(m.Cfg.Tiers)-1 {
		return vm.TierNone, false
	}
	return m.Cfg.Tiers[d+1].ID, true
}

// AddWorkload registers a workload to run. The workload's metric slots
// (throughput series, ops counter) are resolved here, once, so Step never
// consults a name-keyed map.
func (m *Machine) AddWorkload(w Workload) {
	m.Workloads = append(m.Workloads, w)
	wm := &workloadMeta{w: w, series: &sim.Series{Name: w.Name()}}
	wm.hinter, _ = w.(PhaseHinter)
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
			p := r.PageAt(i)
			if p.Tier == vm.TierNone {
				m.Mgr.PageIn(p)
				n++
				if p.Tier == vm.TierNone {
					panic("machine: manager did not place page on PageIn")
				}
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
		m.Mgr.PageIn(p)
		if p.Tier == vm.TierNone {
			panic("machine: manager did not place page on PageIn")
		}
		faulted++
	}
	if faulted > 0 {
		m.faults += int64(faulted)
		m.StallAll(int64(faulted) * vm.FaultCost)
	}
	return faulted
}

// Faults returns the number of page-missing faults taken so far.
func (m *Machine) Faults() int64 { return m.faults }

// AuditsRun returns how many per-quantum invariant audits have executed
// (0 unless the auditor is enabled).
func (m *Machine) AuditsRun() int64 { return m.auditsRun }

// Unmap tears down region r (munmap): the manager releases its tracking
// and accounting (if it implements Releaser), the pages leave every page
// set they were in, and the region is removed from the address space.
// Without this path, committed DRAM/NVM bytes leak on every region
// teardown in a long-running multi-tenant machine.
func (m *Machine) Unmap(r *vm.Region) {
	if rel, ok := m.Mgr.(Releaser); ok {
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

// Run advances the machine by duration.
func (m *Machine) Run(duration int64) {
	end := m.Clock.Now() + duration
	for m.Clock.Now() < end {
		m.stepToward(end)
	}
}

// RunUntilDone advances until every workload reports Done, or until
// maxDuration elapses, to bound runaway experiments; it never runs past
// maxDuration.
func (m *Machine) RunUntilDone(maxDuration int64) {
	end := m.Clock.Now() + maxDuration
	for m.Clock.Now() < end && !m.allDone() {
		m.stepToward(end)
	}
}

// stepToward advances one step without passing end: an adaptive step
// when AdaptiveQuantum is set, otherwise one base quantum, capped at end.
func (m *Machine) stepToward(end int64) {
	if m.Cfg.AdaptiveQuantum {
		m.stepAdaptive(end)
		return
	}
	m.Step(min(m.Cfg.Quantum, end-m.Clock.Now()))
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

// PhaseHinter is an optional Workload interface consumed by the adaptive
// stepper: NextPhaseChange returns the next instant the workload's traffic
// components will change (a phase boundary), ok=false when none is
// scheduled. The adaptive horizon never crosses a hinted boundary, so a
// phase-scheduled workload wakes the solver exactly when its traffic
// turns on. Workloads that change components through event-queue
// callbacks instead need no hint — due events already bound the horizon.
type PhaseHinter interface {
	NextPhaseChange(now int64) (at int64, ok bool)
}

// quiescent reports whether nothing dt-dependent is in flight: an
// adaptive step may stretch only when the migration queue is empty, no
// stall residue is draining, fault injection is off, and no tier is
// offline (the offline sweep polls evacuation per quantum).
func (m *Machine) quiescent() bool {
	if len(m.Migrator.queue) != 0 || m.stall != 0 || m.Injector.Enabled() {
		return false
	}
	for _, off := range m.offline {
		if off {
			return false
		}
	}
	return true
}

// trafficIdle reports whether no workload component can generate device
// traffic this step: every active component either has no share, no
// pages, or moves no bytes. Zero-byte components still cost op time
// (TLB walks), but produce no wear, no access integrals, no PEBS
// records, and no utilization — so the solver's outputs are constant in
// dt and the span can be integrated analytically. Components must be
// pure accessors for this pre-pass (every in-repo workload's are).
func (m *Machine) trafficIdle() bool {
	for _, w := range m.Workloads {
		if w.Done() {
			continue
		}
		for _, c := range w.Components() {
			if c.Share > 0 && c.Set != nil && c.Set.Len() > 0 && (c.ReadBytes > 0 || c.WriteBytes > 0) {
				return false
			}
		}
	}
	return true
}

// nextEventHorizon returns the earliest upcoming instant at which the
// solver's inputs may change while the machine is quiescent: the next
// due event, the next throughput-sample and telemetry instants (their
// cadences are pinned by goldens, so adaptive steps land on the exact
// same timestamps), and any workload-hinted phase boundary, all capped
// at end.
func (m *Machine) nextEventHorizon(now, end int64) int64 {
	h := end
	if at, ok := m.Events.NextDeadline(); ok && at < h {
		h = at
	}
	if t := m.lastSample + m.sampleEach; t > now && t < h {
		h = t
	}
	if m.telemetry != nil {
		if t := m.telemetry.last + m.telemetry.every; t > now && t < h {
			h = t
		}
	}
	for _, wm := range m.wmeta {
		if wm.hinter == nil || wm.w.Done() {
			continue
		}
		if at, ok := wm.hinter.NextPhaseChange(now); ok && at > now && at < h {
			h = at
		}
	}
	return h
}

// stepAdaptive advances one event-driven step: due events fire first
// (they may start migrations, deposit stalls, or flip workload phases),
// then the step runs over either the fixed quantum or — when the machine
// is quiescent and no component moves bytes — the stretch to the next
// event horizon in one analytic span.
func (m *Machine) stepAdaptive(end int64) {
	now := m.Clock.Now()
	m.Events.RunDue(now)
	dt := m.Cfg.Quantum
	if left := end - now; left < dt {
		dt = left
	}
	if m.quiescent() && !m.sampleDue(now) && m.trafficIdle() {
		if h := m.nextEventHorizon(now, end); h-now > dt {
			dt = h - now
		}
	}
	m.stepBody(now, dt)
}

// sampleDue reports whether the step starting at now will record a
// telemetry row. Telemetry samples cumulative counters — they include
// the sampling step's own ops — so that step must advance by the base
// quantum for the recorded values to reproduce the fixed schedule's bit
// for bit. The throughput series needs no such guard: it records the
// step's rate, which under quiescence (no stall, no traffic, no
// migration) is independent of dt, and the event horizon already pins
// the sample instants themselves.
func (m *Machine) sampleDue(now int64) bool {
	return m.telemetry != nil && now-m.telemetry.last >= m.telemetry.every
}

// Step advances one quantum: fire due events, compute workload rates under
// the contention model, account traffic (wear, PEBS samples, access-bit
// integrals), advance migrations, and run manager background work.
func (m *Machine) Step(dt int64) {
	now := m.Clock.Now()
	m.Events.RunDue(now)
	m.stepBody(now, dt)
}

// stepBody is the quantum body shared by the fixed and adaptive paths;
// due events have already fired.
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
	bg := m.Mgr.ActiveThreads() + m.Migrator.activeThreads()
	cpuShare := 1.0
	if total := float64(appThreads) + bg; total > float64(m.Cfg.Cores) {
		cpuShare = float64(m.Cfg.Cores) / total
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
	// The epoch is resolved at the first component: idle steps have none.
	var epoch uint64
	resolved := false
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
			if !resolved {
				epoch, resolved = m.costEpoch(), true
			}
			if k := newCostKey(c, epoch); epoch == 0 || k != s.keys[j] {
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
	if ss, ok := m.Mgr.(SampleSource); ok {
		sampler = ss.Sampler()
	}
	obsComps := m.obsComps[:0]
	obsRates := m.obsRates[:0]
	obs, observing := m.Mgr.(TrafficObserver)
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
			if observing {
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
	if observing {
		obs.ObserveTraffic(now, obsComps, obsRates)
	}
	m.obsComps, m.obsRates = obsComps, obsRates
	m.Mgr.OnQuantum(now, dt)

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

// pendingSample is one drawn PEBS sample awaiting its record: the page
// the sampled access touched and the counter class that fired.
type pendingSample struct {
	p     *vm.Page
	class pebs.Class
}

// feedSamples converts a component's traffic into PEBS samples: one load
// event per cache line read and one store event per cache line written,
// sampled at the manager's configured period. It only draws: each sampled
// page is appended to m.pending, and flushSamples builds and pushes the
// records once the commit loop is done. Splitting the draw from the
// record build keeps the RNG-bound loop free of page dereferences, so the
// build loop can issue its per-page loads back to back. The draws, and so
// the RNG stream, are exactly those of building each record as it is drawn.
func (m *Machine) feedSamples(s *pebs.Sampler, c *Component, occ float64) {
	// PEBS storm episodes multiply the sample inflow (counter
	// misconfiguration / interrupt pressure); the factor is 1 outside
	// storms and the multiply is skipped entirely then, keeping fault-free
	// arithmetic bit-identical.
	loadF := m.Injector.PEBSLoadFactor()
	pages := c.Set.Pages()
	setLen := len(pages)
	rng := m.Rng
	pending := m.pending
	if c.ReadBytes > 0 {
		lines := math.Ceil(float64(c.ReadBytes) / 64)
		n := occ * lines
		if loadF != 1 {
			n *= loadF
		}
		for k := s.Take(n, pebs.ClassLoad); k > 0; k-- {
			pending = append(pending, pendingSample{pages[rng.Intn(setLen)], pebs.ClassLoad})
		}
	}
	if c.WriteBytes > 0 {
		lines := math.Ceil(float64(c.WriteBytes) / 64)
		n := occ * lines
		if loadF != 1 {
			n *= loadF
		}
		for k := s.Take(n, pebs.ClassStore); k > 0; k-- {
			pending = append(pending, pendingSample{pages[rng.Intn(setLen)], pebs.ClassStore})
		}
	}
	m.pending = pending
}

// flushSamples builds the records for the step's pending samples, in draw
// order, and pushes them into buf in 256-record chunks. Nothing pops buf
// between the draws and the flush, so pushing the whole sequence here
// drops exactly the records per-component pushes would have dropped. The
// records are exact because nothing in the commit loop changes a page's
// Tier or ID (see Workload.OnOps). The pending slice is cleared so it
// does not keep unmapped pages alive until the next step.
func (m *Machine) flushSamples(buf *pebs.Buffer) {
	if m.sampleScratch == nil {
		m.sampleScratch = make([]pebs.Record, 256)
	}
	scratch := m.sampleScratch
	for rest := m.pending; len(rest) > 0; {
		batch := min(len(rest), len(scratch))
		for i, ps := range rest[:batch] {
			// PEBS distinguishes loads served by the top of the chain
			// from everything below it (local DRAM vs far memory).
			kind := pebs.Store
			if ps.class == pebs.ClassLoad {
				kind = pebs.LoadDRAM
				if ps.p.Tier != m.fastest {
					kind = pebs.LoadNVM
				}
			}
			scratch[i] = pebs.Record{Page: ps.p.ID, Kind: kind}
		}
		buf.PushBatch(scratch[:batch])
		rest = rest[batch:]
	}
	clear(m.pending)
	m.pending = m.pending[:0]
}

// costComponent prices one component occurrence into cc, delegating to
// the manager's cost model if it has one. It takes pointers so the per-
// component solver loop copies neither the Component nor the CompCost.
func (m *Machine) costComponent(c *Component, cc *CompCost) {
	if cm, ok := m.Mgr.(CostModeler); ok {
		*cc = cm.ComponentCost(*c)
		return
	}
	m.placementCost(c, cc)
}

// costEpoch is the epoch prices are cached under: 1 + the devices' derate
// versions + the manager's CostEpoch, counters that only grow. A new Mgr
// restarts the sum above the last epoch handed out, so no cached price
// outlives its manager. 0 means "do not cache" (see CostEpocher).
func (m *Machine) costEpoch() uint64 {
	s := &m.epochs
	// == cannot panic: s.mgr's type supports it. A manager of a type
	// without == is new on every call, so its prices are never reused.
	if !s.comparable || m.Mgr != s.mgr {
		s.mgr, s.base = m.Mgr, s.last
		s.comparable = reflect.TypeOf(m.Mgr).Comparable()
		s.epocher, _ = m.Mgr.(CostEpocher)
		_, cm := m.Mgr.(CostModeler)
		_, br := m.Mgr.(Brancher)
		s.noCache = s.epocher == nil && (cm || br)
	}
	if s.noCache {
		return 0
	}
	e := s.base + 1
	for _, d := range m.devs {
		e += d.Version()
	}
	if s.epocher != nil {
		e += s.epocher.CostEpoch()
	}
	s.last = e
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

// Branches returns the latency outcomes of one occurrence of c under the
// active manager: the manager's own branches if it is a Brancher,
// otherwise the placement split — the DRAM-resident fraction of the set at
// the DRAM cost and the rest at the NVM cost.
func (m *Machine) Branches(c Component) []CostBranch {
	return m.AppendBranches(nil, c)
}

// AppendBranches is Branches with a caller-supplied buffer: the outcomes
// are appended to dst and the extended slice returned, so per-op callers
// (workload OnOps hooks pricing latency distributions every quantum) can
// reuse a scratch slice instead of allocating on every call. Results are
// cached under the component's costKey.
func (m *Machine) AppendBranches(dst []CostBranch, c Component) []CostBranch {
	epoch := m.costEpoch()
	if epoch == 0 {
		return m.branches(dst, c)
	}
	k := newCostKey(&c, epoch)
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
	if b, ok := m.Mgr.(Brancher); ok {
		return append(dst, b.ComponentBranches(c)...)
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
	s := fmt.Sprintf("machine{%d cores", m.Cfg.Cores)
	for _, d := range m.devs {
		s += fmt.Sprintf(", %s", d)
	}
	return s + fmt.Sprintf(", mgr=%s}", m.Mgr.Name())
}
