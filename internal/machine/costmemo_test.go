package machine_test

import (
	"fmt"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/gups"
	"github.com/tieredmem/hemem/internal/kvs"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/memmode"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// memoRun is one cost-memo scenario: a warmed machine, how many quanta to
// step it, a hook run before each step, and a coverage check run after
// the last one (that the scenario really moved the inputs it is meant to).
type memoRun struct {
	m      *machine.Machine
	steps  int
	before func(i int)
	after  func(t *testing.T)
}

// growApp is a tenant app whose one traffic component spans every region
// it owns: grow maps, faults in and adds a region (set Add); shrink
// unmaps the oldest once none of its pages is mid-migration (set Remove).
type growApp struct {
	m       *machine.Machine
	id      vm.TenantID
	regions []*vm.Region
	set     *vm.PageSet
	comps   []machine.Component
	stopped bool
}

func (a *growApp) Name() string                    { return fmt.Sprintf("grow%d", a.id) }
func (a *growApp) Threads() int                    { return 4 }
func (a *growApp) Components() []machine.Component { return a.comps }
func (a *growApp) OnOps(int64, float64, float64)   {}
func (a *growApp) Done() bool                      { return a.stopped }
func (a *growApp) Stop()                           { a.stopped = true }
func (a *growApp) Regions() []*vm.Region           { return a.regions }

func (a *growApp) grow(size int64) {
	r := a.m.AS.MapOwned(fmt.Sprintf("%s-%d", a.Name(), len(a.regions)), size, a.id)
	a.m.TouchRange(r, 0, r.NumPages())
	for i := 0; i < r.NumPages(); i++ {
		a.set.Add(r.PageID(i))
	}
	a.regions = append(a.regions, r)
}

func (a *growApp) shrink() bool {
	r := a.regions[0]
	busy := false
	r.EachPage(func(p *vm.Page) { busy = busy || p.Migrating() })
	if busy {
		return false
	}
	a.m.Unmap(r)
	a.regions = a.regions[1:]
	return true
}

func startGrowApp(m *machine.Machine, id vm.TenantID, size int64) *growApp {
	a := &growApp{m: m, id: id, set: m.AS.NewPageSet(fmt.Sprintf("grow%d", id), nil)}
	a.grow(size)
	a.comps = []machine.Component{{Set: a.set, Share: 1, ReadBytes: 64, WriteBytes: 64, Pattern: mem.Random}}
	m.AddWorkloadFor(a, id)
	return a
}

// memoScenarios is the table of TestCostMemoMatchesRecompute. Each
// scenario changes one class of price input while the memo is live.
var memoScenarios = []struct {
	name  string
	build func(t *testing.T) memoRun
}{
	// Migrations retier pages (Page.SetTier) and the hot-set shift swaps
	// set members (Add/Remove).
	{"hemem-gups-shift", func(t *testing.T) memoRun {
		cfg := machine.DefaultConfig()
		cfg.Tiers = machine.ClassicTiers(4*sim.GB, 0, 0)
		h := core.New(core.DefaultConfig())
		m := machine.New(cfg, h)
		g := gups.New(m, gups.Config{Threads: 16, WorkingSet: 16 * sim.GB, HotSet: 2 * sim.GB, Seed: 5})
		m.Warm()
		var migrated int64
		return memoRun{m: m, steps: 1500,
			before: func(i int) {
				if i == 700 {
					migrated = m.Migrator.Stats().Pages
					g.ShiftHotSet(1*sim.GB, 11)
				}
			},
			after: func(t *testing.T) {
				if m.Migrator.Stats().Pages == migrated || migrated == 0 {
					t.Errorf("migrated pages %d before the shift, %d at the end: want migrations in both halves",
						migrated, m.Migrator.Stats().Pages)
				}
			}}
	}},
	// Memory Mode prices through its cache model: every closed-form pass
	// moves the prices without touching any page set.
	{"memmode-kvs", func(t *testing.T) memoRun {
		cfg := machine.DefaultConfig()
		cfg.Tiers = machine.ClassicTiers(8*sim.GB, 0, 0)
		mm := memmode.New()
		m := machine.New(cfg, mm)
		d := kvs.NewDriver(m, kvs.DriverConfig{WorkingSet: 32 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 1})
		m.Warm()
		var runBefore int64
		return memoRun{m: m, steps: 1200,
			before: func(i int) {
				if i == 600 {
					runBefore, _ = mm.ModelPasses()
					d.SetTargetRate(0.3 * 8 / (10 * 1000))
				}
			},
			after: func(t *testing.T) {
				run, _ := mm.ModelPasses()
				if run < 3 || run == runBefore {
					t.Errorf("closed-form passes: %d before the rate switch, %d at the end; want ≥3 and one after", runBefore, run)
				}
			}}
	}},
	// NVM thermal episodes derate the device; the CXL tier goes offline
	// (evacuation retiers its pages) and comes back.
	{"chaos-thermal-offline", func(t *testing.T) memoRun {
		cfg := machine.DefaultConfig()
		cfg.Audit = true
		cfg.Faults = fault.Config{NVMThermalMTBF: 100 * sim.Millisecond}
		cfg.Tiers = []machine.TierDesc{
			{ID: vm.TierDRAM, Capacity: 2 * sim.GB},
			{ID: vm.TierCXL, Capacity: 2 * sim.GB},
			{ID: vm.TierNVM, Capacity: 64 * sim.GB, UEVictim: true},
		}
		m := machine.New(cfg, core.New(core.DefaultConfig()))
		gups.New(m, gups.Config{Threads: 16, WorkingSet: 8 * sim.GB, HotSet: 1 * sim.GB, Seed: 2})
		m.Warm()
		return memoRun{m: m, steps: 1200,
			before: func(i int) {
				switch i {
				case 400:
					if !m.OfflineTier(vm.TierCXL) {
						t.Fatal("CXL offline refused")
					}
				case 900:
					if !m.OnlineTier(vm.TierCXL) {
						t.Fatal("CXL online refused")
					}
				}
			},
			after: func(t *testing.T) {
				if v := m.NVM.Version(); v < 4 {
					t.Errorf("NVM derate changed %d times, want thermal episodes", v)
				}
				if fs := m.FaultCounters(); fs.TierEvacuatedPages == 0 {
					t.Error("CXL offline evacuated no pages")
				}
			}}
	}},
	// Tenants come and go (departure unmaps their regions) while a live
	// tenant's set grows by Add and shrinks by Unmap.
	{"tenant-churn", func(t *testing.T) memoRun {
		cfg := machine.DefaultConfig()
		cfg.Tiers = machine.ClassicTiers(1*sim.GB, 0, 0)
		m := machine.New(cfg, core.New(core.DefaultConfig()))
		tr := m.EnableTenants()
		var live *growApp
		admit := func(name string, size int64) vm.TenantID {
			id, res := tr.Admit(machine.TenantSpec{Name: name, Class: machine.Silver}, func(id vm.TenantID) machine.TenantApp {
				a := startGrowApp(m, id, size)
				if live == nil {
					live = a
				}
				return a
			})
			if res != machine.Admitted {
				t.Fatalf("admit %s: %v", name, res)
			}
			return id
		}
		admit("live", 512*sim.MB)
		var guest vm.TenantID
		lens := []int{live.set.Len()}
		shrunk := false
		return memoRun{m: m, steps: 900,
			before: func(i int) {
				switch {
				case i == 100:
					guest = admit("guest", 768*sim.MB)
				case i == 200:
					live.grow(1 * sim.GB)
					lens = append(lens, live.set.Len())
				case i == 300:
					tr.Depart(guest)
				case i >= 450 && !shrunk:
					if shrunk = live.shrink(); shrunk {
						lens = append(lens, live.set.Len())
					}
				}
			},
			after: func(t *testing.T) {
				if !shrunk || len(lens) != 3 || !(lens[0] < lens[1] && lens[2] < lens[1]) {
					t.Errorf("live set lengths %v, want grow then shrink", lens)
				}
				if !tr.Departed(guest) {
					t.Error("guest tenant never departed")
				}
			}}
	}},
}

// Every price and branch list the memo would reuse, after every step of
// each scenario, equals a fresh computation bit for bit: the cost key
// covers everything a price reads.
func TestCostMemoMatchesRecompute(t *testing.T) {
	for _, sc := range memoScenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := sc.build(t)
			m, checked := r.m, 0
			for i := 0; i < r.steps; i++ {
				r.before(i)
				m.Step(machine.Quantum)
				n, err := m.CheckCostMemo()
				if err != nil {
					t.Fatalf("after step %d: %v", i, err)
				}
				checked += n
				// Price every live component's branches too, so the
				// branch memo is checked under every manager, not only
				// where a workload asks for branches itself.
				for _, w := range m.Workloads {
					if !w.Done() {
						for _, c := range w.Components() {
							m.AppendBranches(nil, c)
						}
					}
				}
			}
			priced, reused := m.CostStats()
			t.Logf("priced %d, reused %d, %d cached entries checked", priced, reused, checked)
			if reused == 0 || priced <= int64(len(m.Workloads)) || checked == 0 {
				t.Errorf("priced %d, reused %d, checked %d: the scenario does not exercise the memo", priced, reused, checked)
			}
			r.after(t)
		})
	}
}

// A warmed Memory Mode + FlexKVS machine steps without allocating: the
// branch memo serves FlexKVS's five latency mixtures per quantum, which
// Memory Mode would otherwise build as fresh slices.
func TestMemoryModeKVSStepAllocationFree(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Tiers = machine.ClassicTiers(8*sim.GB, 0, 0)
	m := machine.New(cfg, memmode.New())
	d := kvs.NewDriver(m, kvs.DriverConfig{WorkingSet: 32 * sim.GB, HotKeyFrac: 0.2, HotTrafficFrac: 0.9, Seed: 1})
	m.Warm()
	m.Run(500 * sim.Millisecond)
	d.SetTargetRate(0.3 * 8 / (10 * 1000))
	m.Run(500 * sim.Millisecond)
	allocs := testing.AllocsPerRun(200, func() { m.Step(machine.Quantum) })
	if allocs != 0 {
		t.Errorf("Step allocates %v times per call, want 0", allocs)
	}
}

// pricer is an NVM-first manager with a cost model of its own: every
// component costs time ns, as one branch, and its cost epoch never moves.
type pricer struct {
	stubMgr
	time float64
}

var _ machine.CostModel = (*pricer)(nil)

func (p *pricer) ObserveTraffic(int64, []machine.Component, []float64) {}
func (p *pricer) CostEpoch() uint64                                    { return 0 }

func (p *pricer) ComponentCost(machine.Component) machine.CompCost {
	return machine.CompCost{Time: p.time}
}

func (p *pricer) ComponentBranches(machine.Component) []machine.CostBranch {
	return []machine.CostBranch{{Prob: 1, Time: p.time}}
}

func newPricerMachine(mgr machine.Manager) (*machine.Machine, machine.Component) {
	m := machine.New(machine.DefaultConfig(), mgr)
	g := gups.New(m, gups.Config{Threads: 4, WorkingSet: 1 * sim.GB, Seed: 3})
	m.Warm()
	return m, g.Components()[0]
}

// SetManager between steps drops every cached price and branch list,
// even when the new manager's epoch equals the old one's.
func TestCostMemoManagerSwap(t *testing.T) {
	m, c := newPricerMachine(&pricer{time: 5})
	for i := 0; i < 10; i++ {
		m.Step(machine.Quantum)
		m.AppendBranches(nil, c)
	}
	if _, reused := m.CostStats(); reused == 0 {
		t.Fatal("no price reused before the swap")
	}
	m.SetManager(&pricer{time: 7})
	if br := m.AppendBranches(nil, c); br[0].Time != 7 {
		t.Errorf("branches after the swap = %v, want the new manager's time 7", br)
	}
	m.Step(machine.Quantum)
	n, err := m.CheckCostMemo()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no cached price checked after the swap")
	}
}

// sliceManager is an NVM-first placement manager of a type == cannot
// compare (it holds a slice), passed by value. Its copies share the
// slice's one element, the machine it is attached to.
type sliceManager struct{ m []*machine.Machine }

func newSliceManager() sliceManager { return sliceManager{m: make([]*machine.Machine, 1)} }

func (sliceManager) Name() string                { return "slice" }
func (s sliceManager) Attach(m *machine.Machine) { s.m[0] = m }
func (s sliceManager) PageIn(p *vm.Page)         { s.m[0].AS.SetTier(p, vm.TierNVM) }
func (sliceManager) OnQuantum(now, dt int64)     {}
func (sliceManager) ActiveThreads() float64      { return 0 }

// A manager that == cannot compare is set and stepped without a panic,
// and its placement prices are reused like any other manager's.
func TestCostMemoUncomparableManager(t *testing.T) {
	m, c := newPricerMachine(newSliceManager())
	for i := 0; i < 20; i++ {
		if i == 10 {
			m.SetManager(newSliceManager())
		}
		m.Step(machine.Quantum)
		m.AppendBranches(nil, c)
		if _, err := m.CheckCostMemo(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if priced, reused := m.CostStats(); priced == 0 || reused == 0 {
		t.Errorf("priced %d, reused %d; want placement prices reused", priced, reused)
	}
}
