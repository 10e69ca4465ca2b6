package kvs

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// DriverConfig parameterizes the simulated FlexKVS workload (§5.2.2): a
// server with 8 threads, 4 KB values, 90% GETs / 10% SETs, 20% of the keys
// hot and receiving 90% of the traffic.
type DriverConfig struct {
	// Name lets multiple instances coexist (the priority experiment).
	Name string
	// ServerThreads is the number of serving threads (paper: 8).
	ServerThreads int
	// WorkingSet is the aggregate item bytes (keys × value size).
	WorkingSet int64
	// HotKeyFrac of the keys are hot (paper: 0.2); HotTrafficFrac of
	// key accesses go to them (paper: 0.9). HotKeyFrac = 0 disables the
	// skew (uniform access).
	HotKeyFrac     float64
	HotTrafficFrac float64
	// NetBase is the non-memory service time per request in ns: network
	// stack, parsing, copying. ~24 µs round trip on the Linux TCP stack,
	// ~8 µs on the TAS accelerated stack the paper uses for latency
	// measurements.
	NetBase int64
	// TargetRate throttles offered load in ops/ns (0 = closed loop).
	TargetRate float64
	// Seed scatters the hot item pages.
	Seed uint64
}

// valueSize is bytes per value and getFrac the GET share of operations
// (§5.2.2: 4 KB values, 90% GETs). getFrac is typed so that 1-getFrac
// rounds as float64 arithmetic does.
const (
	valueSize         = 4 * sim.KB
	getFrac   float64 = 0.9
)

// Validate reports the first invalid field of c. Zero fields mean their
// defaults (8 server threads, the TAS service floor, closed-loop load,
// uniform access), so only negative, NaN and
// out-of-range values fail, plus an empty working set and a log and hash
// table of more than math.MaxInt32 pages of pageSize bytes (the
// machine's page size; PageIDs are int32).
func (c DriverConfig) Validate(pageSize int64) error {
	switch {
	case c.ServerThreads < 0:
		return fmt.Errorf("kvs: negative ServerThreads %d", c.ServerThreads)
	case c.WorkingSet <= 0:
		return fmt.Errorf("kvs: WorkingSet %d must be positive", c.WorkingSet)
	case !(c.HotKeyFrac >= 0 && c.HotKeyFrac <= 1):
		return fmt.Errorf("kvs: HotKeyFrac %v outside [0, 1]", c.HotKeyFrac)
	case !(c.HotTrafficFrac >= 0 && c.HotTrafficFrac <= 1):
		return fmt.Errorf("kvs: HotTrafficFrac %v outside [0, 1]", c.HotTrafficFrac)
	case c.NetBase < 0:
		return fmt.Errorf("kvs: negative NetBase %d", c.NetBase)
	case !(c.TargetRate >= 0):
		return fmt.Errorf("kvs: TargetRate %v not a non-negative number", c.TargetRate)
	}
	if err := vm.CheckMapping(pageSize, tableBytes(c.WorkingSet), c.WorkingSet); err != nil {
		return fmt.Errorf("kvs: %w", err)
	}
	return nil
}

// tableBytes sizes the hash table for a log of ws item bytes.
// Block-chain table sizing: ~4 buckets per item at 64 B blocks comes to
// roughly 1/128 of the item bytes for 4 KB values.
func tableBytes(ws int64) int64 { return max(ws/128, 2*sim.MB) }

// NetBaseTAS and NetBaseLinux are calibrated service-time floors.
const (
	NetBaseTAS   = 8 * sim.Microsecond
	NetBaseLinux = 24 * sim.Microsecond
)

// Driver is the simulated FlexKVS instance.
type Driver struct {
	cfg DriverConfig

	logRegion   *vm.Region
	tableRegion *vm.Region
	hotItems    *vm.PageSet
	coldItems   *vm.PageSet
	tableSet    *vm.PageSet

	m       *machine.Machine
	comps   []machine.Component
	ops     float64
	latency *sim.Histogram
	lastNow int64
	obsOps  float64
	obsTime int64
	// branchBuf is scratch for machine.AppendBranches: OnOps prices the
	// latency mixture five times per quantum, which must not allocate.
	branchBuf []machine.CostBranch
}

// NewDriver maps the store's memory on m and registers the workload. The
// item log is the large, long-lived range HeMem manages; the hash table is
// sized at ~2% of the log and lives alongside it. NewDriver panics with
// Validate's message, before mapping anything, on an invalid cfg.
func NewDriver(m *machine.Machine, cfg DriverConfig) *Driver {
	if err := cfg.Validate(m.Cfg.PageSize); err != nil {
		panic(err.Error())
	}
	if cfg.Name == "" {
		cfg.Name = "flexkvs"
	}
	if cfg.ServerThreads == 0 {
		cfg.ServerThreads = 8
	}
	if cfg.NetBase == 0 {
		cfg.NetBase = NetBaseTAS
	}
	d := &Driver{cfg: cfg, m: m, latency: sim.NewHistogram()}
	// The hash table is allocated at server startup, before items stream
	// in, so first-touch placement puts it in DRAM.
	d.tableRegion = m.AS.Map(cfg.Name+"-table", tableBytes(cfg.WorkingSet))
	d.tableSet = d.tableRegion.AsSet()
	d.logRegion = m.AS.Map(cfg.Name+"-log", cfg.WorkingSet)

	if cfg.HotKeyFrac > 0 && cfg.HotKeyFrac < 1 {
		pages := d.logRegion.ShuffledPages(sim.NewRand(cfg.Seed + 0x6b7673))
		nHot := int(float64(len(pages)) * cfg.HotKeyFrac)
		d.hotItems = m.AS.NewPageSet(cfg.Name+"-hot", pages[:nHot])
		d.coldItems = m.AS.NewPageSet(cfg.Name+"-cold", pages[nHot:])
	} else {
		d.coldItems = m.AS.NewPageSet(cfg.Name+"-items", d.logRegion.AllPages())
	}
	d.rebuild()
	m.AddWorkload(d)
	return d
}

// rebuild constructs the traffic components. Every op does a hash-table
// walk (two dependent cache-line reads); GETs read the value from the item
// log, SETs append a fresh copy (sequential write) and update the table.
func (d *Driver) rebuild() {
	c := d.cfg
	hotShare, coldShare := 0.0, 1.0
	if d.hotItems != nil {
		// Disjoint decomposition of the key-popularity mixture.
		hotShare = c.HotTrafficFrac
		coldShare = 1 - c.HotTrafficFrac
	}
	var comps []machine.Component
	// Hash-table walk on every op: bucket block + item key check.
	comps = append(comps, machine.Component{
		Set: d.tableSet, Share: 1, ReadBytes: 128, Deps: 2, Pattern: mem.Random,
	})
	// Table update on SETs.
	comps = append(comps, machine.Component{
		Set: d.tableSet, Share: 1 - getFrac, WriteBytes: 64, Pattern: mem.Random,
	})
	value := func(set *vm.PageSet, share float64) {
		if set == nil || share == 0 {
			return
		}
		// GET: read the value. SET: append a new copy of the item
		// (write) — charged to the key's popularity class because hot
		// keys are rewritten into the log head which stays hot.
		comps = append(comps,
			machine.Component{
				Set: set, Share: share * getFrac,
				ReadBytes: valueSize, Pattern: mem.Random,
			},
			machine.Component{
				Set: set, Share: share * (1 - getFrac),
				WriteBytes: valueSize, Pattern: mem.Sequential,
			},
		)
	}
	value(d.hotItems, hotShare)
	value(d.coldItems, coldShare)
	d.comps = comps
}

// Name implements machine.Workload.
func (d *Driver) Name() string { return d.cfg.Name }

// Threads implements machine.Workload.
func (d *Driver) Threads() int { return d.cfg.ServerThreads }

// Components implements machine.Workload.
func (d *Driver) Components() []machine.Component { return d.comps }

// TargetRate implements machine.RateLimited.
func (d *Driver) TargetRate() float64 { return d.cfg.TargetRate }

// SetTargetRate changes the offered load (ops/ns; 0 = closed loop). The
// latency experiments warm up closed-loop, then measure at partial load.
func (d *Driver) SetTargetRate(r float64) { d.cfg.TargetRate = r }

// ComputePerOp implements machine.Computes: the network/parse service
// floor occupies server threads in addition to memory accesses.
func (d *Driver) ComputePerOp() float64 { return float64(d.cfg.NetBase) }

// OnOps implements machine.Workload: track progress and synthesize the
// request latency distribution from the per-component cost branches.
//
// When the driver is rate-limited (an open-loop client at fixed offered
// load, as in the paper's 30%-load latency measurements), recorded
// latencies include M/M/1-style queueing inflation 1/(1−ρ), where ρ is
// the servers' busy fraction at the achieved rate. This is what turns a
// modest service-time difference between tiering systems into the large
// median/tail gaps of Tables 3 and 4.
func (d *Driver) OnOps(now int64, ops float64, opTime float64) {
	d.ops += ops
	d.lastNow = now
	if ops <= 0 {
		return
	}
	inflate := 1.0
	if d.cfg.TargetRate > 0 {
		// opTime already includes the NetBase service floor via
		// machine.Computes.
		rho := d.cfg.TargetRate * opTime / float64(d.cfg.ServerThreads)
		if rho > 0.95 {
			rho = 0.95
		}
		inflate = 1 / (1 - rho)
	}
	base := float64(d.cfg.NetBase) * inflate
	table := d.branchMean(d.comps[0])
	record := func(set *vm.PageSet, prob float64, read bool) {
		if set == nil || prob <= 0 {
			return
		}
		var comp machine.Component
		if read {
			comp = machine.Component{Set: set, ReadBytes: valueSize, Pattern: mem.Random}
		} else {
			comp = machine.Component{Set: set, WriteBytes: valueSize, Pattern: mem.Sequential}
		}
		d.branchBuf = d.m.AppendBranches(d.branchBuf[:0], comp)
		for _, br := range d.branchBuf {
			n := uint64(ops * prob * br.Prob)
			if n > 0 {
				d.latency.ObserveN(base+(table+br.Time)*inflate, n)
			}
		}
	}
	hotShare, coldShare := 0.0, 1.0
	if d.hotItems != nil {
		hotShare, coldShare = d.cfg.HotTrafficFrac, 1-d.cfg.HotTrafficFrac
	}
	record(d.hotItems, hotShare*getFrac, true)
	record(d.coldItems, coldShare*getFrac, true)
	record(d.hotItems, hotShare*(1-getFrac), false)
	record(d.coldItems, coldShare*(1-getFrac), false)
}

// branchMean returns the expected cost of one occurrence of c.
func (d *Driver) branchMean(c machine.Component) float64 {
	var t float64
	d.branchBuf = d.m.AppendBranches(d.branchBuf[:0], c)
	for _, br := range d.branchBuf {
		t += br.Prob * br.Time
	}
	return t
}

// Done implements machine.Workload: the server runs until stopped.
func (d *Driver) Done() bool { return false }

// Mops returns throughput in million operations per second since the last
// ResetScore.
func (d *Driver) Mops() float64 {
	el := float64(d.lastNow - d.obsTime)
	if el <= 0 {
		return 0
	}
	return (d.ops - d.obsOps) / el * 1e3
}

// ResetScore restarts the measurement window and latency histogram.
func (d *Driver) ResetScore() {
	d.obsOps = d.ops
	d.obsTime = d.lastNow
	d.latency.Reset()
}

// Latency returns the request latency histogram (ns).
func (d *Driver) Latency() *sim.Histogram { return d.latency }

// HotItemPages returns the hot item page set (nil when uniform).
func (d *Driver) HotItemPages() *vm.PageSet { return d.hotItems }

// LogRegion returns the item-log region (for pinning in the priority
// experiment).
func (d *Driver) LogRegion() *vm.Region { return d.logRegion }

// TableRegion returns the hash-table region.
func (d *Driver) TableRegion() *vm.Region { return d.tableRegion }

func (d *Driver) String() string {
	return fmt.Sprintf("%s{%d thr, ws=%dGB}", d.cfg.Name, d.cfg.ServerThreads, d.cfg.WorkingSet/sim.GB)
}
