package machine_test

import (
	"testing"

	"github.com/tieredmem/hemem/internal/fault"
	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/ptscan"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
	"github.com/tieredmem/hemem/internal/xmem"
)

// ledgerMachine is a two-tier machine (16 MB DRAM, 1 GB NVM of 2 MB
// pages) whose static DRAM-first manager fills DRAM with the first 8
// pages of a 12-page region and spills the rest to NVM.
func ledgerMachine(t *testing.T, faults fault.Config) (*machine.Machine, *vm.Region) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Tiers = machine.ClassicTiers(16*sim.MB, 1*sim.GB, 0)
	cfg.Faults = faults
	m := machine.New(cfg, xmem.DRAMFirst())
	r := m.AS.Map("data", 24*sim.MB)
	m.Warm()
	return m, r
}

// checkLedger asserts the committed pages of DRAM and NVM.
func checkLedger(t *testing.T, m *machine.Machine, when string, dram, nvm int64) {
	t.Helper()
	ps := m.Cfg.PageSize
	if got, want := m.Committed(vm.TierDRAM), dram*ps; got != want {
		t.Errorf("%s: Committed(DRAM) = %d pages, want %d", when, got/ps, dram)
	}
	if got, want := m.Committed(vm.TierNVM), nvm*ps; got != want {
		t.Errorf("%s: Committed(NVM) = %d pages, want %d", when, got/ps, nvm)
	}
}

// The committed ledger charges a queued move to its destination from
// Enqueue on, and gives it back to the source when the move is cancelled;
// a completed move leaves it where the page now lives. The address
// space's resident count follows every transition.
func TestCommittedLedgerFollowsMoves(t *testing.T) {
	m, r := ledgerMachine(t, fault.Config{})
	checkLedger(t, m, "after warm-up", 8, 4)
	if m.AS.Count(vm.TierDRAM) != 8 || m.AS.Count(vm.TierNVM) != 4 {
		t.Fatalf("resident DRAM/NVM = %d/%d pages, want 8/4", m.AS.Count(vm.TierDRAM), m.AS.Count(vm.TierNVM))
	}
	if m.Committed(vm.TierNone) != 0 || m.Committed(vm.TierCXL) != 0 || m.Committed(vm.MaxTiers) != 0 {
		t.Error("TierNone, an absent tier or an out-of-range tier reads nonzero")
	}

	down, up := r.PageAt(0), r.PageAt(11)
	if !m.Migrator.Enqueue(down, vm.TierNVM) || !m.Migrator.EnqueueUrgent(up, vm.TierDRAM) {
		t.Fatal("enqueue refused")
	}
	checkLedger(t, m, "two moves queued", 8, 4)
	if m.Migrator.Enqueue(down, vm.TierDRAM) {
		t.Fatal("a migrating page was queued twice")
	}
	if dst, ok := m.Migrator.Cancel(down); !ok || dst != vm.TierNVM {
		t.Fatalf("Cancel = %v, %v; want NVM, true", dst, ok)
	}
	checkLedger(t, m, "demotion cancelled", 9, 3)
	m.Run(10 * sim.Millisecond)
	if up.Tier != vm.TierDRAM || m.Migrator.QueueLen() != 0 {
		t.Fatalf("promotion did not complete: tier %v, %d queued", up.Tier, m.Migrator.QueueLen())
	}
	checkLedger(t, m, "promotion completed", 9, 3)
	if m.AS.Count(vm.TierDRAM) != 9 {
		t.Errorf("resident DRAM = %d pages, want 9", m.AS.Count(vm.TierDRAM))
	}
}

// A move abandoned after its retries returns its charge to the source
// before the manager hears of it.
func TestCommittedLedgerAbandonedMove(t *testing.T) {
	m, r := ledgerMachine(t, fault.Config{MigrationAbortProb: 1})
	p := r.PageAt(11)
	if !m.Migrator.Enqueue(p, vm.TierDRAM) {
		t.Fatal("enqueue refused")
	}
	checkLedger(t, m, "promotion queued", 9, 3)
	m.Run(50 * sim.Millisecond)
	if m.FaultCounters().MigrationsAbandoned != 1 {
		t.Fatalf("%d moves abandoned, want 1", m.FaultCounters().MigrationsAbandoned)
	}
	checkLedger(t, m, "promotion abandoned", 8, 4)
}

// Unmap cancels the region's queued moves (here under a manager with no
// Releaser), so no page of the dead region is left in flight and the
// whole charge returns; the other region's moves stay queued.
func TestCommittedLedgerUnmapCancelsMoves(t *testing.T) {
	m, r := ledgerMachine(t, fault.Config{})
	other := m.AS.Map("other", 4*sim.MB)
	m.Warm()
	checkLedger(t, m, "after warm-up", 8, 6)
	// Demote one of r's DRAM pages, promote one NVM page of each region.
	for _, p := range []*vm.Page{r.PageAt(0), other.PageAt(0), r.PageAt(11)} {
		dst := vm.TierDRAM
		if p.Tier == vm.TierDRAM {
			dst = vm.TierNVM
		}
		if !m.Migrator.Enqueue(p, dst) {
			t.Fatalf("enqueue of page %d refused", p.ID)
		}
	}
	m.Unmap(r)
	if m.Migrator.QueueLen() != 1 {
		t.Fatalf("%d moves queued after unmap, want other's 1", m.Migrator.QueueLen())
	}
	r.EachPage(func(p *vm.Page) {
		if p.Migrating() {
			t.Errorf("page %d of the unmapped region still migrating", p.ID)
		}
	})
	checkLedger(t, m, "after unmap", 1, 1)
}

// An offline tier admits no queued move, urgent or not, until it is back
// online.
func TestOfflineTierAdmitsNoMoves(t *testing.T) {
	m, r := ledgerMachine(t, fault.Config{})
	if !m.OfflineTier(vm.TierDRAM) {
		t.Fatal("DRAM did not go offline")
	}
	p := r.PageAt(11)
	if m.Migrator.Enqueue(p, vm.TierDRAM) || m.Migrator.EnqueueUrgent(p, vm.TierDRAM) {
		t.Fatal("a move into offline DRAM was queued")
	}
	// The machine's own evacuation charged DRAM's pages to NVM.
	checkLedger(t, m, "DRAM offline", 0, 12)
	m.OnlineTier(vm.TierDRAM)
	if !m.Migrator.Enqueue(p, vm.TierDRAM) {
		t.Fatal("a move into DRAM was refused after it came back online")
	}
}

// No manager's first touch lands on an offline tier: Nimble and the
// static DRAM-first preset place without reading liveness, and the
// machine's page-in path re-places their picks on the nearest online
// tier, so the fallback sweep has nothing to move.
func TestFirstTouchSkipsOfflineTier(t *testing.T) {
	for _, tc := range []struct {
		name string
		mgr  machine.Manager
	}{
		{"nimble", ptscan.Nimble()},
		{"dram-first", xmem.DRAMFirst()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Tiers = machine.ClassicTiers(4*sim.GB, 16*sim.GB, 0)
			m := machine.New(cfg, tc.mgr)
			if !m.OfflineTier(vm.TierDRAM) {
				t.Fatal("DRAM did not go offline")
			}
			r := m.AS.Map("fresh", 2*sim.GB)
			m.Warm()
			if n := r.Count(vm.TierDRAM); n != 0 {
				t.Fatalf("%d of %d fresh pages on offline DRAM", n, r.NumPages())
			}
			if n := r.Count(vm.TierNVM); n != r.NumPages() {
				t.Fatalf("%d of %d fresh pages on NVM", n, r.NumPages())
			}
			if q := m.Migrator.QueueLen(); q != 0 {
				t.Fatalf("%d evacuation moves queued for fresh pages", q)
			}
		})
	}
}
