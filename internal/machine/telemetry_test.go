package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// nopManager is the minimal Manager for white-box telemetry tests: every
// page lands in DRAM and no background work runs.
type nopManager struct{ m *Machine }

func (*nopManager) Name() string            { return "nop" }
func (n *nopManager) Attach(m *Machine)     { n.m = m }
func (n *nopManager) PageIn(p *vm.Page)     { n.m.AS.SetTier(p, vm.TierDRAM) }
func (*nopManager) OnQuantum(now, dt int64) {}
func (*nopManager) ActiveThreads() float64  { return 0 }

// fixedWorkload drives a constant single-component access stream.
type fixedWorkload struct {
	name string
	comp []Component
}

func (w *fixedWorkload) Name() string                  { return w.name }
func (w *fixedWorkload) Threads() int                  { return 1 }
func (w *fixedWorkload) Components() []Component       { return w.comp }
func (w *fixedWorkload) OnOps(int64, float64, float64) {}
func (w *fixedWorkload) Done() bool                    { return false }

// Regression: WriteCSV used to walk only the timestamps of whichever
// series sorted first alphabetically. A series created later (the fault
// counters appear on the first injected fault) or sampling on its own
// cadence either lost rows or sheared every column against the wrong
// clock. Rows must cover the union of all series' timestamps.
func TestWriteCSVAlignsLateSeries(t *testing.T) {
	tel := &Telemetry{series: make(map[string]*sim.Series)}
	// "aaa" sorts first but records only early points; "zzz" starts late.
	tel.get("aaa").Append(100, 1)
	tel.get("aaa").Append(200, 2)
	tel.get("zzz").Append(200, 20)
	tel.get("zzz").Append(300, 30)
	tel.get("zzz").Append(400, 40)

	var sb strings.Builder
	if err := tel.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t_seconds,aaa,zzz" {
		t.Fatalf("header = %q", lines[0])
	}
	want := []string{
		"0.000,1,0",  // t=100ns
		"0.000,2,20", // t=200ns
		"0.000,2,30", // t=300: aaa holds its last value
		"0.000,2,40", // t=400
	}
	if len(lines)-1 != len(want) {
		t.Fatalf("got %d rows, want %d (union of timestamps):\n%s", len(lines)-1, len(want), sb.String())
	}
	for i, w := range want {
		if lines[i+1] != w {
			t.Errorf("row %d = %q, want %q", i, lines[i+1], w)
		}
	}
}

// Telemetry series names derive from the machine's tier table, not the
// classic {dram,nvm,disk} set the old Series doc promised: every
// device-backed tier gets its bandwidth pair, and every traversed
// migration-graph edge gets its lazy per-edge series.
func TestTelemetrySeriesCoverTierTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tiers = []TierDesc{
		{ID: vm.TierDRAM, Capacity: 4 * sim.GB},
		{ID: vm.TierCXL, Capacity: 8 * sim.GB},
		{ID: vm.TierNVM, Capacity: 64 * sim.GB, UEVictim: true},
		{ID: vm.TierDisk, Capacity: 256 * sim.GB, Swap: true},
	}
	m := New(cfg, &nopManager{})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	r := m.AS.Map("w1-data", 1*sim.GB)
	m.AddWorkload(&fixedWorkload{name: "w1", comp: []Component{
		{Set: r.AsSet(), Share: 1, ReadBytes: 64},
	}})
	m.Warm()
	m.Run(1 * sim.Second)

	// Drive one migration over each link of the DRAM→CXL→NVM chain and
	// one promotion back, so both directions of every edge traverse.
	p := r.PageAt(0)
	for _, dst := range []vm.Tier{vm.TierCXL, vm.TierNVM, vm.TierCXL, vm.TierDRAM} {
		if !m.Migrator.Enqueue(p, dst) {
			t.Fatalf("Enqueue(%v) refused", dst)
		}
		m.Run(1 * sim.Second)
		if got := p.Tier; got != dst {
			t.Fatalf("page on %v, want %v", got, dst)
		}
	}

	names := make(map[string]bool)
	for _, n := range tel.Names() {
		names[n] = true
	}
	// Every device-backed tier — including CXL, which the stale doc's
	// fixed set omitted — emits its bandwidth pair.
	want := m.BandwidthSeriesNames()
	if len(want) != 2*len(cfg.Tiers) {
		t.Fatalf("BandwidthSeriesNames = %v, want 2 per tier", want)
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("missing bandwidth series %q (have %v)", n, tel.Names())
		}
	}
	// Every traversed migration edge emits its per-edge series; untouched
	// edges stay absent (laziness keeps old CSV column sets stable).
	for _, sd := range cfg.Tiers {
		for _, dd := range cfg.Tiers {
			name := "migration." + edgeName(sd.ID, dd.ID) + ".pages"
			if m.Migrator.Moved(sd.ID, dd.ID) > 0 {
				if !names[name] {
					t.Errorf("edge %s moved pages but series %q missing", edgeName(sd.ID, dd.ID), name)
				}
			} else if names[name] {
				t.Errorf("series %q exists but edge never moved a page", name)
			}
		}
	}
	for _, edge := range [][2]vm.Tier{
		{vm.TierDRAM, vm.TierCXL}, {vm.TierCXL, vm.TierNVM},
		{vm.TierNVM, vm.TierCXL}, {vm.TierCXL, vm.TierDRAM},
	} {
		if m.Migrator.Moved(edge[0], edge[1]) == 0 {
			t.Errorf("edge %s never traversed; test drove it", edgeName(edge[0], edge[1]))
		}
	}
}

// refWriteCSV is the pre-merge-cursor writer — a binary search per cell
// via Series.At — kept verbatim as the byte-identity reference for the
// cursor-based WriteCSV.
func refWriteCSV(t *Telemetry, w io.Writer) {
	names := t.Names()
	if len(names) == 0 {
		return
	}
	fmt.Fprint(w, "t_seconds")
	for _, n := range names {
		fmt.Fprintf(w, ",%s", n)
	}
	fmt.Fprintln(w)
	var times []int64
	for _, n := range names {
		times = append(times, t.series[n].Times...)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	uniq := times[:0]
	for i, ts := range times {
		if i == 0 || ts != times[i-1] {
			uniq = append(uniq, ts)
		}
	}
	for _, ts := range uniq {
		fmt.Fprintf(w, "%.3f", float64(ts)/1e9)
		for _, n := range names {
			fmt.Fprintf(w, ",%.6g", t.series[n].At(ts))
		}
		fmt.Fprintln(w)
	}
}

// The merge-cursor WriteCSV is byte-identical to the binary-search
// reference, on a synthetic recording with staggered and gappy series and
// on a real machine run.
func TestWriteCSVMatchesBinarySearchReference(t *testing.T) {
	check := func(name string, tel *Telemetry) {
		t.Helper()
		var got, want strings.Builder
		if err := tel.WriteCSV(&got); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		refWriteCSV(tel, &want)
		if got.String() != want.String() {
			t.Errorf("%s: cursor writer diverges from reference\ngot:\n%s\nwant:\n%s",
				name, got.String(), want.String())
		}
	}

	// Synthetic: series starting late, ending early, sampling on their
	// own cadences, and sharing only some timestamps.
	syn := &Telemetry{series: make(map[string]*sim.Series)}
	syn.get("early").Append(100, 1)
	syn.get("early").Append(200, 2)
	syn.get("late").Append(250, 10)
	syn.get("late").Append(400, 11)
	syn.get("sparse").Append(100, 5)
	syn.get("sparse").Append(400, 6)
	syn.get("dense").Append(100, 1)
	syn.get("dense").Append(150, 2)
	syn.get("dense").Append(200, 3)
	syn.get("dense").Append(250, 4)
	check("synthetic", syn)

	// Recorded run: a real machine with lazily created series (workload
	// ops, per-edge migration) layered over the fixed-cadence ones.
	m := New(DefaultConfig(), &nopManager{})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	r := m.AS.Map("w1-data", 1*sim.GB)
	m.AddWorkload(&fixedWorkload{name: "w1", comp: []Component{
		{Set: r.AsSet(), Share: 1, ReadBytes: 64},
	}})
	m.Warm()
	m.Run(1 * sim.Second)
	m.Migrator.Enqueue(r.PageAt(0), vm.TierNVM)
	m.Run(1 * sim.Second)
	check("recorded", tel)
}

// Telemetry records the per-workload cumulative ops series the Series
// docs promise.
func TestTelemetryRecordsWorkloadOps(t *testing.T) {
	m := New(DefaultConfig(), &nopManager{})
	tel := m.EnableTelemetry(100 * sim.Millisecond)
	r := m.AS.Map("w1-data", 1*sim.GB)
	m.AddWorkload(&fixedWorkload{name: "w1", comp: []Component{
		{Set: r.AsSet(), Share: 1, ReadBytes: 64},
	}})
	m.Warm()
	m.Run(1 * sim.Second)
	s := tel.Series("workload.w1.ops")
	if s == nil || s.Len() == 0 {
		t.Fatal("workload.w1.ops series missing")
	}
	// The series is cumulative: non-decreasing, positive once traffic
	// flows, and never ahead of the machine's own op counter (the final
	// sample predates the last few quanta).
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1] {
			t.Fatalf("ops series decreased at %d: %v -> %v", i, s.Values[i-1], s.Values[i])
		}
	}
	last := s.Values[s.Len()-1]
	if last <= 0 || last > m.TotalOps("w1") {
		t.Fatalf("ops series last = %v, TotalOps = %v", last, m.TotalOps("w1"))
	}
}
