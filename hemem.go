// Package hemem is a Go reproduction of HeMem (Raybuck et al., SOSP 2021):
// a scalable tiered main-memory manager for DRAM + Intel Optane DC NVM
// that tracks memory access by PEBS sampling instead of page-table
// scanning, classifies huge pages into hot/cold FIFO queues with a
// clock-based cooling scheme, prioritizes write-heavy pages for DRAM
// (NVM write bandwidth is scarce), and migrates pages asynchronously
// under a 10 ms policy.
//
// Because the paper's system needs Optane DIMMs, PEBS counters,
// userfaultfd patches and an I/OAT DMA engine, this package ships a
// deterministic simulated testbed calibrated to the paper's measurements
// (see DESIGN.md): memory device models, a PEBS sampler, a page-table
// scan model, a DMA engine, and the machine that runs workloads against a
// choice of tiering systems — HeMem itself, Intel Memory Mode, Linux
// Nimble, X-Mem-style static placement, and HeMem variants that scan page
// tables instead of sampling.
//
// The typical flow:
//
//	mgr := hemem.NewHeMem(hemem.DefaultHeMemConfig())
//	m := hemem.NewMachine(hemem.DefaultMachineConfig(), mgr)
//	g := hemem.NewGUPS(m, hemem.GUPSConfig{Threads: 16,
//		WorkingSet: 512 * hemem.GB, HotSet: 16 * hemem.GB})
//	m.Warm()
//	m.Run(60 * hemem.Second)
//	fmt.Println(g.Score())
//
// Every table and figure of the paper's evaluation is regenerated by the
// experiments in Experiments (also available via cmd/hemem-bench).
package hemem

import (
	"io"

	"github.com/tieredmem/hemem/internal/alloc"
	"github.com/tieredmem/hemem/internal/bench"
	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gap"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/nimble"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/silo"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/tpcc"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// Size and time units for configuration values.
const (
	KB = sim.KB
	MB = sim.MB
	GB = sim.GB
	TB = sim.TB

	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Core simulation types.
type (
	// Machine is the simulated tiered-memory testbed.
	Machine = machine.Machine
	// MachineConfig sets cores, the tier table, page size and seed.
	MachineConfig = machine.Config
	// Manager is a tiered memory management system under test.
	Manager = machine.Manager
	// Workload generates memory traffic on a Machine.
	Workload = machine.Workload
	// Component describes one access stream of a workload.
	Component = machine.Component
	// Tier identifies DRAM or NVM residency.
	Tier = vm.Tier
	// Page is per-page metadata.
	Page = vm.Page
	// PageSet is a set of pages with tier occupancy counters.
	PageSet = vm.PageSet
	// Region is a mapped virtual address range.
	Region = vm.Region
	// Histogram records latency distributions.
	Histogram = sim.Histogram
	// Telemetry records machine-level time series (device bandwidth,
	// migration backlog, stall fraction) and exports CSV; enable it with
	// Machine.EnableTelemetry.
	Telemetry = machine.Telemetry
	// FaultConfig selects deterministic fault injection (DMA channel
	// failures, NVM uncorrectable errors and thermal throttling,
	// migration aborts, PEBS storms); set it in MachineConfig.Faults. The
	// zero value disables injection entirely, leaving runs byte-identical
	// to fault-free builds.
	FaultConfig = fault.Config
	// FaultStats counts injected faults and recovery actions; read it via
	// Machine.FaultCounters.
	FaultStats = machine.FaultStats
	// ChaosConfig drives the seeded chaos scheduler: compound fault
	// episodes, whole-tier offline/online events, and correctable-error
	// storms escalating to predictive page retirement; set it in
	// FaultConfig.Chaos. The zero value is a strict no-op.
	ChaosConfig = fault.ChaosConfig
	// Episode is one entry of the replayable chaos episode log, read via
	// Machine.Episodes.
	Episode = fault.Episode
	// EpisodeKind classifies a chaos episode.
	EpisodeKind = fault.EpisodeKind
	// AuditViolation is one broken invariant found by the runtime
	// auditor (enable it with MachineConfig.Audit or SetAuditAll).
	AuditViolation = machine.AuditViolation
)

// Chaos episode kinds.
const (
	EpNone        = fault.EpNone
	EpDMADegraded = fault.EpDMADegraded
	EpNVMThermal  = fault.EpNVMThermal
	EpPEBSStorm   = fault.EpPEBSStorm
	EpCompound    = fault.EpCompound
	EpCEStorm     = fault.EpCEStorm
	EpTierOffline = fault.EpTierOffline
)

// OfflineSet packs a list of offline-eligible tiers into the fixed
// array ChaosConfig.OfflineTiers expects.
func OfflineSet(tiers ...TierID) [vm.MaxTiers]TierID { return fault.OfflineSet(tiers...) }

// WriteEpisodes renders a chaos episode log in its canonical replayable
// text form.
func WriteEpisodes(w io.Writer, eps []Episode) error { return fault.WriteEpisodes(w, eps) }

// SetAuditAll turns the runtime invariant auditor on (or off) for every
// machine built afterwards, regardless of MachineConfig.Audit; it
// returns the previous setting. The auditor is a pure observer — it
// never changes a run — and panics with a diagnostic dump on the first
// violation.
func SetAuditAll(v bool) bool { return machine.SetAuditAll(v) }

// Tier values.
const (
	TierNone = vm.TierNone
	TierDRAM = vm.TierDRAM
	TierNVM  = vm.TierNVM
	// TierCXL is the calibrated CXL-attached memory expander model,
	// usable as a middle tier between DRAM and NVM (see
	// MachineConfig.Tiers).
	TierCXL = vm.TierCXL
)

// Tier descriptor table and migration graph. MachineConfig.Tiers lists
// the machine's tiers fastest-first; HeMem derives its migration chain
// (demote = next row, promote = previous row) from it, so the same
// policy code drives 2-, 3-, or 4-tier machines. A nil table is the
// classic DRAM+NVM+disk testbed.
type (
	// TierID indexes the tier descriptor table (alias of Tier).
	TierID = vm.TierID
	// TierDesc describes one tier: identity, capacity, an optional
	// explicit device spec, and the Swap/UEVictim roles.
	TierDesc = machine.TierDesc
	// MemSpec is a memory device's calibrated performance model.
	MemSpec = mem.Spec
	// MemModel builds a device spec for a capacity; register one per
	// custom TierID with RegisterTierModel.
	MemModel = mem.Model
)

// RegisterTier allocates a new TierID with the given name (idempotent on
// repeated names). Pair it with RegisterTierModel to make the tier
// usable in MachineConfig.Tiers.
func RegisterTier(name string) TierID { return vm.RegisterTier(name) }

// RegisterTierModel installs the device model behind a TierID; built-in
// models for DRAM, NVM, Disk, and CXL are pre-registered.
func RegisterTierModel(t TierID, m MemModel) { mem.RegisterModel(t, m) }

// HeMem manager types.
type (
	// HeMem is the paper's tiered memory manager.
	HeMem = core.HeMem
	// HeMemConfig holds HeMem's policy parameters.
	HeMemConfig = core.Config
	// HeMemStats is the manager's engine counters (samples, promotions,
	// cooling epochs, ...), read via HeMem.Stats.
	HeMemStats = core.Stats
	// Tracker is HeMem's pluggable access-observation mechanism; select
	// one by name with HeMemConfig.Tracker ("pebs", "damon", "idlepage").
	Tracker = core.Tracker
	// Policy is HeMem's pluggable classification + migration policy;
	// select one with HeMemConfig.Policy ("hemem", "heat").
	Policy = core.Policy
	// HeatForecaster projects a heat-policy bucket's trajectory; select
	// one with HeMemConfig.HeatForecaster ("static", "trend", "ema").
	HeatForecaster = core.HeatForecaster
	// ScanManager is a page-table-scanning manager (Nimble and the
	// HeMem-PT ablations).
	ScanManager = ptscan.Manager
	// ScanOptions configures a ScanManager.
	ScanOptions = ptscan.Options
	// StaticManager is a fixed first-touch placement (DRAM-only,
	// NVM-only, X-Mem, Opt).
	StaticManager = xmem.Static
	// MemoryMode is the hardware DRAM-cache baseline.
	MemoryMode = memmode.MemoryMode
)

// DefaultMachineConfig is one socket of the paper's testbed: 24 cores,
// 192 GB DRAM, 768 GB Optane, 2 MB pages.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// ClassicTiers is the paper testbed's tier table for MachineConfig.Tiers:
// DRAM, NVM and a swap disk with the given capacities, where zero keeps a
// tier's default (192 GB, 768 GB, 4 TB). ClassicTiers(16*GB, 0, 0)
// shrinks DRAM below a working set so pages migrate.
func ClassicTiers(dram, nvm, disk int64) []TierDesc { return machine.ClassicTiers(dram, nvm, disk) }

// DefaultHeMemConfig is the paper's prototype parameter set (§3).
func DefaultHeMemConfig() HeMemConfig { return core.DefaultConfig() }

// NewMachine builds a machine running mgr.
func NewMachine(cfg MachineConfig, mgr Manager) *Machine { return machine.New(cfg, mgr) }

// NewHeMem builds the HeMem manager.
func NewHeMem(cfg HeMemConfig) *HeMem { return core.New(cfg) }

// RegisterTracker installs a custom access tracker under a name usable
// in HeMemConfig.Tracker. Panics on a duplicate name, like
// RegisterTierModel.
func RegisterTracker(name string, f func(HeMemConfig) Tracker) { core.RegisterTracker(name, f) }

// RegisterPolicy installs a custom classification policy under a name
// usable in HeMemConfig.Policy.
func RegisterPolicy(name string, f func(HeMemConfig) Policy) { core.RegisterPolicy(name, f) }

// RegisterHeatForecaster installs a custom heat forecaster under a name
// usable in HeMemConfig.HeatForecaster.
func RegisterHeatForecaster(name string, f func(HeMemConfig) HeatForecaster) {
	core.RegisterHeatForecaster(name, f)
}

// TrackerNames lists the registered access trackers, sorted.
func TrackerNames() []string { return core.TrackerNames() }

// PolicyNames lists the registered classification policies, sorted.
func PolicyNames() []string { return core.PolicyNames() }

// HeatForecasterNames lists the registered heat forecasters, sorted.
func HeatForecasterNames() []string { return core.HeatForecasterNames() }

// NewMemoryMode builds the Intel Optane DC memory-mode baseline (hardware
// direct-mapped DRAM cache).
func NewMemoryMode() *MemoryMode { return memmode.New() }

// NewNimble builds the Linux Nimble baseline (kernel-thread page-table
// scanning and migration).
func NewNimble() *ScanManager { return nimble.New() }

// NewHeMemPTAsync builds HeMem with asynchronous page-table scanning in
// place of PEBS (the paper's M.Async ablation).
func NewHeMemPTAsync() *ScanManager { return ptscan.New(ptscan.HeMemPTAsync()) }

// NewHeMemPTSync builds the serialized scan-then-migrate variant
// (M.Sync).
func NewHeMemPTSync() *ScanManager { return ptscan.New(ptscan.HeMemPTSync()) }

// DRAMOnly places everything in DRAM until full.
func DRAMOnly() *StaticManager { return xmem.DRAMFirst() }

// NVMOnly places everything in NVM (the X-Mem placement for large
// random-access structures).
func NVMOnly() *StaticManager { return xmem.NVMOnly() }

// XMem places regions of at least threshold bytes in NVM.
func XMem(threshold int64) *StaticManager { return xmem.XMem(threshold) }

// Workload drivers.
type (
	// GUPS is the giga-updates-per-second microbenchmark (§5.1).
	GUPS = gups.GUPS
	// GUPSConfig parameterizes a GUPS run.
	GUPSConfig = gups.Config
	// KVS is the simulated FlexKVS workload (§5.2.2).
	KVS = kvs.Driver
	// KVSConfig parameterizes a FlexKVS instance.
	KVSConfig = kvs.DriverConfig
	// KVStore is the real segmented-log key-value store.
	KVStore = kvs.Store
	// KVStoreConfig parameterizes a KVStore.
	KVStoreConfig = kvs.Config
	// TPCC is the simulated Silo/TPC-C workload (§5.2.1).
	TPCC = tpcc.Driver
	// TPCCConfig parameterizes a TPC-C run.
	TPCCConfig = tpcc.DriverConfig
	// TPCCEnv is the real TPC-C database over the silo engine.
	TPCCEnv = tpcc.Env
	// DB is the Silo-style OCC database engine.
	DB = silo.DB
	// BC is the simulated GAP betweenness-centrality workload (§5.2.3).
	BC = gap.Driver
	// BCConfig parameterizes a BC run.
	BCConfig = gap.DriverConfig
	// Graph is a CSR graph from the GAP substrate.
	Graph = gap.Graph
)

// NewGUPS maps and registers a GUPS workload on m.
func NewGUPS(m *Machine, cfg GUPSConfig) *GUPS { return gups.New(m, cfg) }

// NewKVS maps and registers a FlexKVS workload on m.
func NewKVS(m *Machine, cfg KVSConfig) *KVS { return kvs.NewDriver(m, cfg) }

// NewKVStore builds the real key-value store.
func NewKVStore(cfg KVStoreConfig) *KVStore { return kvs.NewStore(cfg) }

// NewTPCC maps and registers a TPC-C workload on m.
func NewTPCC(m *Machine, cfg TPCCConfig) *TPCC { return tpcc.NewDriver(m, cfg) }

// NewDB builds the real Silo-style database engine.
func NewDB() *DB { return silo.NewDB() }

// NewTPCCEnv populates a real TPC-C database over db.
func NewTPCCEnv(db *DB, warehouses uint64) *TPCCEnv { return tpcc.NewEnv(db, warehouses) }

// TPCCRand is the TPC-C input generator (NURand et al.).
type TPCCRand = tpcc.Rand

// NewTPCCRand returns a deterministic TPC-C input generator.
func NewTPCCRand(seed uint64) *TPCCRand { return tpcc.NewRand(seed) }

// NewBC maps and registers a betweenness-centrality workload on m.
func NewBC(m *Machine, cfg BCConfig) *BC { return gap.NewDriver(m, cfg) }

// Kronecker generates a Graph500-style power-law edge list and builds the
// symmetrized CSR graph.
func Kronecker(scale, edgeFactor int, seed uint64) *Graph {
	edges := gap.Kronecker(gap.KroneckerConfig{Scale: scale, EdgeFactor: edgeFactor, Seed: seed})
	return gap.Build(1<<scale, edges)
}

// BetweennessCentrality runs Brandes' algorithm from iterations random
// sources over g.
func BetweennessCentrality(g *Graph, iterations int, seed uint64) []float64 {
	return gap.BC(g, iterations, seed)
}

// Allocation interception (§3.2): workloads can allocate through an
// Interceptor, which forwards small mmaps to the kernel, manages large
// ones, and adopts growing arenas once they cross the 1 GB threshold.
type (
	// Interceptor models libHeMem's mmap/malloc interception.
	Interceptor = alloc.Interceptor
	// Arena is a heap range growing through small allocations.
	Arena = alloc.Arena
)

// NewInterceptor returns an allocation interceptor over m.
func NewInterceptor(m *Machine) *Interceptor { return alloc.New(m) }

// Network front end: the real FlexKVS store served over the memcached
// text protocol.
type (
	// KVServer serves a KVStore over the memcached text protocol.
	KVServer = kvs.Server
	// KVClient is a minimal memcached text-protocol client.
	KVClient = kvs.Client
)

// NewKVServer wraps store in a memcached-protocol server.
func NewKVServer(store *KVStore) *KVServer { return kvs.NewServer(store) }

// DialKV connects a client to a memcached-compatible server.
func DialKV(addr string) (*KVClient, error) { return kvs.Dial(addr) }

// Additional GAP kernels beyond the paper's BC.

// BFS runs breadth-first search from src, returning the parent array.
func BFS(g *Graph, src uint32) []int32 { return gap.BFS(g, src) }

// PageRank computes ranks by damped power iteration; ranks sum to 1.
func PageRank(g *Graph) []float64 {
	ranks, _ := gap.PageRank(g, gap.PageRankConfig{})
	return ranks
}

// ConnectedComponents labels each vertex with its component's minimum id.
func ConnectedComponents(g *Graph) []uint32 { return gap.ConnectedComponents(g) }

// TriangleCount returns the number of distinct triangles in g.
func TriangleCount(g *Graph) int64 { return gap.TriangleCount(g) }

// TierDisk is the optional slowest tier (§3.4 swapping); enable it via
// HeMemConfig.EnableSwap, and size it with the third argument of
// ClassicTiers.
const TierDisk = vm.TierDisk

// Experiment regenerates one table or figure of the paper.
type Experiment = bench.Experiment

// ExperimentOpts controls experiment scale.
type ExperimentOpts = bench.Opts

// Experiments returns every registered experiment (one per table and
// figure of §5).
func Experiments() []Experiment { return bench.All() }

// RunExperiment runs the experiment with the given id, writing its table
// to w.
func RunExperiment(id string, w io.Writer, opts ExperimentOpts) bool {
	e, err := bench.ByID(id)
	if err != nil {
		return false
	}
	e.Run(w, opts)
	return true
}
