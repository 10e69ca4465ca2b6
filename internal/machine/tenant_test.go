package machine

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// testTenantApp is the minimal tenant app for white-box runtime tests:
// one owned region driven by a constant access stream.
type testTenantApp struct {
	name    string
	region  *vm.Region
	comps   []Component
	stopped bool
}

func (a *testTenantApp) Name() string                  { return a.name }
func (a *testTenantApp) Threads() int                  { return 1 }
func (a *testTenantApp) Components() []Component       { return a.comps }
func (a *testTenantApp) OnOps(int64, float64, float64) {}
func (a *testTenantApp) Done() bool                    { return a.stopped }
func (a *testTenantApp) Stop()                         { a.stopped = true }
func (a *testTenantApp) Regions() []*vm.Region         { return []*vm.Region{a.region} }

func startTestTenant(m *Machine, id vm.TenantID, size int64) TenantApp {
	name := fmt.Sprintf("tt%d", id)
	a := &testTenantApp{name: name}
	a.region = m.AS.MapOwned(name, size, id)
	m.TouchRange(a.region, 0, a.region.NumPages())
	a.comps = []Component{{Set: a.region.AsSet(), Share: 1, ReadBytes: 64}}
	m.AddWorkloadFor(a, id)
	return a
}

// Admission control: reservations that fit start immediately, ones that
// don't wait FIFO and start when a departure frees reservation, and ones
// no machine state could satisfy are rejected outright.
func TestAdmissionControlQueueAndReject(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tiers = []TierDesc{
		{ID: vm.TierDRAM, Capacity: 256 * sim.MB},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	m := New(cfg, &nopManager{})
	tr := m.EnableTenants()

	var spec TenantSpec
	spec.Name, spec.Class = "big", Gold
	spec.Reserve[vm.TierDRAM] = 192 * sim.MB
	id1, res := tr.Admit(spec, func(id vm.TenantID) TenantApp { return startTestTenant(m, id, 64*sim.MB) })
	if res != Admitted || id1 != 1 {
		t.Fatalf("first admit = (%v, %v), want (1, admitted)", id1, res)
	}

	spec.Name = "waits"
	spec.Reserve[vm.TierDRAM] = 128 * sim.MB
	if _, res := tr.Admit(spec, func(id vm.TenantID) TenantApp { return startTestTenant(m, id, 64*sim.MB) }); res != AdmitQueued {
		t.Fatalf("second admit = %v, want queued (192+128 MB > 256 MB)", res)
	}
	if tr.PendingAdmits() != 1 {
		t.Fatalf("PendingAdmits = %d, want 1", tr.PendingAdmits())
	}

	spec.Name = "impossible"
	spec.Reserve[vm.TierDRAM] = 512 * sim.MB
	if _, res := tr.Admit(spec, nil); res != AdmitRejected {
		t.Fatalf("oversized admit = %v, want rejected (512 MB > 256 MB tier)", res)
	}

	// Departure drains on the sim timeline, then the queued arrival starts.
	tr.Depart(id1)
	m.Run(100 * sim.Millisecond)
	if !tr.Departed(id1) {
		t.Fatalf("tenant 1 not departed after drain window")
	}
	if tr.PendingAdmits() != 0 || !tr.Active(2) {
		t.Fatalf("queued arrival not admitted after departure: pending=%d active2=%v",
			tr.PendingAdmits(), tr.Active(2))
	}
	if got := tr.SpecOf(2).Name; got != "waits" {
		t.Fatalf("tenant 2 spec = %q, want the queued arrival", got)
	}
	// The departed tenant's pages and reservation are gone.
	if n := m.AS.TenantPages(id1, vm.TierDRAM); n != 0 {
		t.Fatalf("departed tenant still owns %d DRAM pages", n)
	}
	if got := tr.Reserved(vm.TierDRAM); got != 128*sim.MB {
		t.Fatalf("Reserved(DRAM) = %d MB, want the successor's 128 MB", got/sim.MB)
	}
	st := tr.Stats()
	if st.Admitted != 2 || st.Queued != 1 || st.Rejected != 1 || st.Departed != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

// A spec that fails Validate is rejected: admitted, a -1 GB DRAM
// reservation would lower the reserved sum enough to let four 200 MB
// reservations onto a 256 MB DRAM tier, and a class outside the QoS
// table would index past the per-class histograms on the first step.
func TestAdmitRejectsNegativeReserve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tiers = []TierDesc{
		{ID: vm.TierDRAM, Capacity: 256 * sim.MB},
		{ID: vm.TierNVM, Capacity: 4 * sim.GB, UEVictim: true},
	}
	m := New(cfg, &nopManager{})
	tr := m.EnableTenants()

	var neg TenantSpec
	neg.Name = "negative"
	neg.Reserve[vm.TierDRAM] = -sim.GB
	if _, res := tr.Admit(neg, nil); res != AdmitRejected {
		t.Fatalf("Reserve[DRAM] = -1 GB admit = %v, want rejected", res)
	}
	neg.Reserve[vm.TierDRAM] = 0
	neg.Cap[vm.TierNVM] = -1
	if _, res := tr.Admit(neg, nil); res != AdmitRejected {
		t.Fatalf("Cap[NVM] = -1 admit = %v, want rejected", res)
	}
	for _, c := range []QoSClass{NumQoSClasses + 2, -1} {
		bad := TenantSpec{Name: "class", Class: c}
		want := fmt.Sprintf("QoS class %d outside [0, 3)", c)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Class %d: Validate = %v, want %q", c, err, want)
		}
		if _, res := tr.Admit(bad, nil); res != AdmitRejected {
			t.Fatalf("Class %d admit = %v, want rejected", c, res)
		}
	}
	if err := (TenantSpec{Class: Gold}).Validate(); err != nil {
		t.Fatalf("a zero gold spec fails Validate: %v", err)
	}

	admitted := 0
	for i := 0; i < 4; i++ {
		var spec TenantSpec
		spec.Name = fmt.Sprint("r", i)
		spec.Reserve[vm.TierDRAM] = 200 * sim.MB
		if _, res := tr.Admit(spec, func(id vm.TenantID) TenantApp { return startTestTenant(m, id, 16*sim.MB) }); res == Admitted {
			admitted++
		}
	}
	if admitted != 1 || tr.Reserved(vm.TierDRAM) != 200*sim.MB {
		t.Fatalf("%d of four 200 MB reservations admitted, %d MB reserved; want 1 and 200 MB on a 256 MB tier",
			admitted, tr.Reserved(vm.TierDRAM)/sim.MB)
	}
	if st := tr.Stats(); st.Rejected != 4 || st.Queued != 3 {
		t.Fatalf("Stats = %+v, want 4 rejected, 3 queued", st)
	}
}

// Satellite regression: per-tenant telemetry series created mid-run (a
// tenant admitted while the machine is already running) must land in
// WriteCSV with correct union-of-timestamps alignment — rows before the
// series' first sample read 0, and no row shears against the columns
// that existed from the start.
func TestTenantSeriesCreatedMidRunAlign(t *testing.T) {
	m := New(DefaultConfig(), &nopManager{})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	tr := m.EnableTenants()

	start := func(id vm.TenantID) TenantApp { return startTestTenant(m, id, 64*sim.MB) }
	if _, res := tr.Admit(TenantSpec{Name: "first"}, start); res != Admitted {
		t.Fatalf("pre-run admit = %v", res)
	}
	const arrival = 500 * sim.Millisecond
	m.Events.Schedule(arrival, func(now int64) {
		if _, res := tr.Admit(TenantSpec{Name: "late"}, start); res != Admitted {
			t.Fatalf("mid-run admit = %v", res)
		}
	})
	m.Run(1 * sim.Second)

	late := tel.Series("tenant.2.dram.pages")
	if late == nil || late.Len() == 0 {
		t.Fatalf("tenant.2.dram.pages missing; have %v", tel.Names())
	}
	if late.Times[0] < arrival {
		t.Fatalf("late tenant's series starts at %d ns, before its admission at %d", late.Times[0], arrival)
	}
	early := tel.Series("tenant.1.dram.pages")
	if early == nil || early.Times[0] >= arrival {
		t.Fatalf("tenant.1's series should predate the second admission")
	}

	var sb strings.Builder
	if err := tel.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	header := strings.Split(lines[0], ",")
	col := -1
	for i, n := range header {
		if n == "tenant.2.dram.pages" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("CSV header lacks tenant.2.dram.pages: %q", lines[0])
	}
	sawZeroRow, sawLiveRow := false, false
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			t.Fatalf("sheared row: %d fields vs %d header columns: %q", len(fields), len(header), line)
		}
		ts, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad timestamp in %q: %v", line, err)
		}
		v, err := strconv.ParseFloat(fields[col], 64)
		if err != nil {
			t.Fatalf("bad cell in %q: %v", line, err)
		}
		if int64(ts*1e9) < late.Times[0] {
			if v != 0 {
				t.Fatalf("row at %.3fs predates the late series but reads %v, want backfilled 0", ts, v)
			}
			sawZeroRow = true
		} else if v > 0 {
			sawLiveRow = true
		}
	}
	if !sawZeroRow || !sawLiveRow {
		t.Fatalf("CSV should cover both the backfilled and live phases of the late series (zero=%v live=%v)",
			sawZeroRow, sawLiveRow)
	}
}
