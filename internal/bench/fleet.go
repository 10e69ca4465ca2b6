package bench

import (
	"fmt"
	"io"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// The fleet experiment is the multi-tenant QoS showcase: every machine
// hosts a churning population of gold/silver/besteffort tenants
// contending for a DRAM tier sized well below their summed working
// sets. Tenants arrive through admission control (reservations that
// don't fit queue FIFO), run a skewed random-access workload, and
// depart with their regions drained through the normal migrator — all
// on the sim timeline, with the invariant auditor checking tenant
// conservation every quantum on every machine. One machine is one sweep
// cell, so the fleet scales across the worker pool and the aggregate
// table is byte-identical at any -jobs.

// fleetDRAM/fleetNVM size each machine's tiers: DRAM holds roughly a
// third of the steady tenant working set, so QoS decides who runs from
// fast memory.
const (
	fleetDRAM = 1 * sim.GB
	fleetNVM  = 16 * sim.GB
)

// fleetApp is one tenant's workload: 90% of accesses hit a random
// quarter of its region (the hot set), the rest are uniform — GUPS
// shaped, but per-tenant, so per-class latency separates cleanly when
// gold hot sets fit DRAM and besteffort ones don't.
type fleetApp struct {
	name    string
	region  *vm.Region
	hot     *vm.PageSet
	cold    *vm.PageSet
	comps   []machine.Component
	stopped bool
}

// startFleetApp maps the tenant's owned region, faults it in, and
// registers the workload. rng draws the hot-set scatter; it fires at
// admission time, which the event timeline orders deterministically.
func startFleetApp(m *machine.Machine, id vm.TenantID, size int64, rng *sim.Rand) *fleetApp {
	name := fmt.Sprintf("tenant%d", id)
	a := &fleetApp{name: name}
	a.region = m.AS.MapOwned(name, size, id)
	m.TouchRange(a.region, 0, a.region.NumPages())
	pages := a.region.ShuffledPages(rng)
	nHot := max(len(pages)/4, 1)
	a.hot = m.AS.NewPageSet(name+"-hot", pages[:nHot])
	a.cold = m.AS.NewPageSet(name+"-cold", pages[nHot:])
	a.comps = []machine.Component{
		{Set: a.hot, Share: 0.9, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
		{Set: a.cold, Share: 0.1, ReadBytes: 8, WriteBytes: 8, Pattern: mem.Random},
	}
	m.AddWorkloadFor(a, id)
	return a
}

func (a *fleetApp) Name() string                         { return a.name }
func (a *fleetApp) Threads() int                         { return 1 }
func (a *fleetApp) Components() []machine.Component      { return a.comps }
func (a *fleetApp) OnOps(now int64, ops, opTime float64) {}
func (a *fleetApp) Done() bool                           { return a.stopped }
func (a *fleetApp) Stop()                                { a.stopped = true }
func (a *fleetApp) Regions() []*vm.Region                { return []*vm.Region{a.region} }

// fleetSpec builds one tenant's quota spec: gold and silver carry soft
// DRAM reservations admission control enforces; besteffort runs
// unreserved under a hard DRAM cap.
func fleetSpec(name string, class machine.QoSClass) machine.TenantSpec {
	spec := machine.TenantSpec{Name: name, Class: class}
	switch class {
	case machine.Gold:
		spec.Reserve[vm.TierDRAM] = 128 * sim.MB
	case machine.Silver:
		spec.Reserve[vm.TierDRAM] = 64 * sim.MB
	default:
		// Tighter than a typical hot set, so besteffort always runs
		// partly from NVM while DRAM is contended.
		spec.Cap[vm.TierDRAM] = 48 * sim.MB
	}
	return spec
}

// fleetClasses resolves the tenant class mix: the -qos flag pins every
// tenant to one class, otherwise the cell rng cycles the three.
func fleetClasses(o Opts) ([]machine.QoSClass, error) {
	if o.QoS == "" {
		return []machine.QoSClass{machine.Gold, machine.Silver, machine.BestEffort}, nil
	}
	c, ok := machine.ParseQoS(o.QoS)
	if !ok {
		return nil, fmt.Errorf("unknown QoS class %q (valid: %v)", o.QoS, machine.QoSNames())
	}
	return []machine.QoSClass{c}, nil
}

// fleetMachineResult is one machine's contribution to the fleet table.
type fleetMachineResult struct {
	hist      [machine.NumQoSClasses]*sim.Histogram
	dramBytes [machine.NumQoSClasses]int64
	tenants   [machine.NumQoSClasses]int64
	mig       [machine.NumQoSClasses]int64
	stats     machine.TenantStats
	audits    int64
}

// fleetChurn is one pre-drawn lifecycle event: the longest-lived active
// tenant departs and a fresh arrival takes its place.
type fleetChurn struct {
	at    int64
	class machine.QoSClass
	size  int64
}

// fleetMachine runs one machine of the fleet for span sim-ns.
func fleetMachine(c CellInfo, classes []machine.QoSClass, perMachine int, span int64) fleetMachineResult {
	rng := sim.NewRand(c.Seed)

	ccfg := core.DefaultConfig()
	// Tenant regions are a few hundred MB — below the default 1 GB
	// growth threshold — and must be manager-tracked to migrate; the
	// default 1 GB free target would otherwise drain the whole tier.
	ccfg.LargeAllocThreshold = 64 * sim.MB
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 64 * sim.MB}
	h := core.New(ccfg)

	mcfg := machine.DefaultConfig()
	mcfg.Seed = c.Seed
	mcfg.Audit = true
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: fleetDRAM},
		{ID: vm.TierNVM, Capacity: fleetNVM, UEVictim: true},
	}
	m := machine.New(mcfg, h)
	tr := m.EnableTenants()

	next := 0
	admitOne := func(class machine.QoSClass, size int64) {
		next++
		tr.Admit(fleetSpec(fmt.Sprintf("t%d", next), class), func(id vm.TenantID) machine.TenantApp {
			return startFleetApp(m, id, size, rng)
		})
	}
	drawSize := func() int64 { return (64 + int64(rng.Intn(97))) * 2 * sim.MB } // 128–320 MB
	drawClass := func() machine.QoSClass { return classes[rng.Intn(len(classes))] }

	for i := 0; i < perMachine; i++ {
		admitOne(drawClass(), drawSize())
	}

	// Pre-draw the churn schedule so every rng consumption is pinned to
	// declaration order; which tenant departs is resolved at fire time
	// (lowest active ID = longest-lived), which the timeline orders
	// deterministically.
	events := perMachine / 2
	if events < 1 {
		events = 1
	}
	every := span / int64(events+1)
	var churn []fleetChurn
	for k := 1; k <= events; k++ {
		churn = append(churn, fleetChurn{
			at:    int64(k)*every + rng.Int63n(every/2),
			class: drawClass(),
			size:  drawSize(),
		})
	}
	for _, ev := range churn {
		ev := ev
		m.Events.Schedule(ev.at, func(now int64) {
			for id := vm.TenantID(1); int(id) <= tr.NumTenants(); id++ {
				if tr.Active(id) {
					tr.Depart(id)
					break
				}
			}
			admitOne(ev.class, ev.size)
		})
	}

	m.Run(span)

	var res fleetMachineResult
	for cl := 0; cl < machine.NumQoSClasses; cl++ {
		res.hist[cl] = tr.ClassHist(machine.QoSClass(cl))
		res.mig[cl] = tr.ClassMigrations(machine.QoSClass(cl))
	}
	for id := vm.TenantID(1); int(id) <= tr.NumTenants(); id++ {
		cl := tr.SpecOf(id).Class
		res.tenants[cl]++
		if tr.Active(id) {
			res.dramBytes[cl] += m.AS.TenantBytes(id, vm.TierDRAM)
		}
	}
	res.stats = tr.Stats()
	res.audits = m.AuditsRun()
	return res
}

func runFleet(w io.Writer, o Opts) {
	classes, err := fleetClasses(o)
	if err != nil {
		fmt.Fprintln(w, err)
		return
	}
	machines := int(o.scale(16, 200))
	perMachine := int(o.scale(12, 24))
	if o.Tenants > 0 {
		perMachine = o.Tenants
	}
	span := o.scale(8, 60) * sim.Second

	s := NewSweep("fleet", o)
	for i := 0; i < machines; i++ {
		s.Cell(fmt.Sprintf("machine=%d", i), func(c CellInfo) any {
			return fleetMachine(c, classes, perMachine, span)
		})
	}
	res := s.Gather()

	// Fleet-wide aggregation in declaration order: exact histogram
	// merges per class, summed DRAM bytes, migrations, and lifecycle
	// counters.
	var hist [machine.NumQoSClasses]*sim.Histogram
	for cl := range hist {
		hist[cl] = sim.NewHistogram()
	}
	var dramBytes, tenants, mig [machine.NumQoSClasses]int64
	var stats machine.TenantStats
	var audits int64
	for _, v := range res {
		r := v.(fleetMachineResult)
		for cl := 0; cl < machine.NumQoSClasses; cl++ {
			hist[cl].Merge(r.hist[cl])
			dramBytes[cl] += r.dramBytes[cl]
			tenants[cl] += r.tenants[cl]
			mig[cl] += r.mig[cl]
		}
		stats.Admitted += r.stats.Admitted
		stats.Queued += r.stats.Queued
		stats.Rejected += r.stats.Rejected
		stats.Departed += r.stats.Departed
		audits += r.audits
	}
	var totalDRAM int64
	for _, b := range dramBytes {
		totalDRAM += b
	}

	tw := table(w)
	fmt.Fprintln(tw, "class\ttenants\tp50 ns\tp99 ns\tdram GB\tdram share\tmigrations")
	for _, cl := range []machine.QoSClass{machine.Gold, machine.Silver, machine.BestEffort} {
		if tenants[cl] == 0 {
			continue
		}
		share := 0.0
		if totalDRAM > 0 {
			share = 100 * float64(dramBytes[cl]) / float64(totalDRAM)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.2f\t%.1f%%\t%d\n",
			cl, tenants[cl], hist[cl].Quantile(0.50), hist[cl].Quantile(0.99),
			float64(dramBytes[cl])/float64(sim.GB), share, mig[cl])
	}
	tw.Flush()
	fmt.Fprintf(w, "lifecycle: %d admitted, %d queued, %d rejected, %d departed across %d machines\n",
		stats.Admitted, stats.Queued, stats.Rejected, stats.Departed, machines)
	fmt.Fprintf(w, "auditor: every quantum on every machine (%d audits), zero violations\n", audits)
	fmt.Fprintf(w, "%d machines x %d churning tenants on %d GB DRAM + %d GB NVM; gold/silver reserve DRAM, besteffort capped\n",
		machines, perMachine, fleetDRAM/sim.GB, fleetNVM/sim.GB)
}
