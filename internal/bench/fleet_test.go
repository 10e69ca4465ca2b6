package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/core"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// The fleet table must be byte-identical at any -jobs: every machine is
// one sweep cell with a declaration-order seed, and aggregation walks
// Gather's declaration-order results.
func TestFleetByteIdenticalAcrossJobs(t *testing.T) {
	one := runOutput(t, "fleet", reference)
	eight := expOutput(t, "fleet")
	if one != eight {
		t.Fatalf("fleet output differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", one, eight)
	}
	for _, want := range []string{"gold", "silver", "besteffort", "lifecycle:", "zero violations"} {
		if !strings.Contains(one, want) {
			t.Errorf("fleet output lacks %q:\n%s", want, one)
		}
	}
}

// fairnessMachine builds the single-machine testbed the fairness
// property tests run on: a DRAM tier far smaller than the summed tenant
// working sets, the auditor checking tenant conservation every quantum,
// and free targets scaled to the tier (the 1 GB defaults would drain it).
func fairnessMachine(seed uint64, dram int64) (*machine.Machine, *machine.TenantRuntime, *sim.Rand) {
	ccfg := core.DefaultConfig()
	ccfg.LargeAllocThreshold = 16 * sim.MB
	ccfg.FreeTargets = map[vm.TierID]int64{vm.TierDRAM: 16 * sim.MB}
	h := core.New(ccfg)
	mcfg := machine.DefaultConfig()
	mcfg.Seed = seed
	mcfg.Audit = true
	mcfg.Tiers = []machine.TierDesc{
		{ID: vm.TierDRAM, Capacity: dram},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	m := machine.New(mcfg, h)
	return m, m.EnableTenants(), sim.NewRand(seed)
}

// Satellite property: N equal-class, equal-size tenants converge to
// equal DRAM shares within tolerance — the weighted-fair selector's
// skew term demotes whoever is over its share first, and promotion
// prefers whoever is under. Checked across three seeds.
func TestEqualTenantsConvergeToFairShares(t *testing.T) {
	const n = 4
	for _, seed := range []uint64{1, 2, 3} {
		m, tr, rng := fairnessMachine(seed, 256*sim.MB)
		for i := 0; i < n; i++ {
			spec := machine.TenantSpec{Name: fmt.Sprintf("eq%d", i), Class: machine.Silver}
			if _, res := tr.Admit(spec, func(id vm.TenantID) machine.TenantApp {
				return startFleetApp(m, id, 128*sim.MB, rng)
			}); res != machine.Admitted {
				t.Fatalf("seed %d: tenant %d admit = %v", seed, i, res)
			}
		}
		m.Run(4 * sim.Second)

		var shares [n]int64
		var total int64
		for id := vm.TenantID(1); id <= n; id++ {
			shares[id-1] = m.AS.TenantBytes(id, vm.TierDRAM)
			total += shares[id-1]
		}
		if total == 0 {
			t.Fatalf("seed %d: no tenant holds DRAM", seed)
		}
		mean := float64(total) / n
		for i, s := range shares {
			if math.Abs(float64(s)-mean) > 0.5*mean {
				t.Errorf("seed %d: tenant %d holds %d MB DRAM, mean %0.f MB — outside ±50%% (all: %v)",
					seed, i+1, s/sim.MB, mean/float64(sim.MB), shares)
			}
		}
	}
}

// Satellite property: a gold tenant's DRAM footprint never drops below
// its soft reservation while best-effort tenants exist to evict, even
// as the best-effort population churns and each fresh arrival floods
// DRAM with its faulted-in pages.
func TestGoldReserveHeldUnderChurn(t *testing.T) {
	const reserve = 128 * sim.MB
	m, tr, rng := fairnessMachine(7, 256*sim.MB)

	var spec machine.TenantSpec
	spec.Name, spec.Class = "gold", machine.Gold
	spec.Reserve[vm.TierDRAM] = reserve
	goldID, res := tr.Admit(spec, func(id vm.TenantID) machine.TenantApp {
		return startFleetApp(m, id, 192*sim.MB, rng)
	})
	if res != machine.Admitted {
		t.Fatalf("gold admit = %v", res)
	}

	var beIDs []vm.TenantID
	admitBE := func() {
		var be machine.TenantSpec
		be.Name, be.Class = "be", machine.BestEffort
		be.Cap[vm.TierDRAM] = 64 * sim.MB
		id, res := tr.Admit(be, func(id vm.TenantID) machine.TenantApp {
			return startFleetApp(m, id, 128*sim.MB, rng)
		})
		if res != machine.Admitted {
			t.Fatalf("besteffort admit = %v", res)
		}
		beIDs = append(beIDs, id)
	}
	for i := 0; i < 3; i++ {
		admitBE()
	}

	const span = 5 * sim.Second
	var churn func(now int64)
	churn = func(now int64) {
		tr.Depart(beIDs[0])
		beIDs = beIDs[1:]
		admitBE()
		if now+500*sim.Millisecond < span {
			m.Events.Schedule(now+500*sim.Millisecond, churn)
		}
	}
	m.Events.Schedule(500*sim.Millisecond, churn)

	// Sample gold's DRAM footprint every 100 ms after a settling second:
	// "never drops below" is checked throughout the churn, not just at
	// the end of the run.
	minGold := int64(math.MaxInt64)
	var sample func(now int64)
	sample = func(now int64) {
		if b := m.AS.TenantBytes(goldID, vm.TierDRAM); b < minGold {
			minGold = b
		}
		if now+100*sim.Millisecond < span {
			m.Events.Schedule(now+100*sim.Millisecond, sample)
		}
	}
	m.Events.Schedule(1*sim.Second, sample)

	m.Run(span)

	if minGold < reserve {
		t.Fatalf("gold dipped to %d MB DRAM during churn, below its %d MB reservation",
			minGold/sim.MB, reserve/sim.MB)
	}
	beDRAM := int64(0)
	for _, id := range beIDs {
		beDRAM += m.AS.TenantBytes(id, vm.TierDRAM)
	}
	if beDRAM == 0 {
		t.Fatalf("no besteffort pages in DRAM — the reservation was never contested")
	}
}
