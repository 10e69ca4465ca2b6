package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/tieredmem/hemem"
)

// testSizes shrinks every workload so the whole file runs in a few
// seconds; the assertions are on counts and digests, never on timings.
var testSizes = sizes{
	gupsPEBS:     20 * hemem.Second,
	gupsIdlepage: 20 * hemem.Millisecond,
	kvsClosed:    2 * hemem.Second,
	kvsLoaded:    2 * hemem.Second,
	diurnalDays:  2,
	fleetTenants: 2,
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.E2E {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if len(spec.EndToEnd) != len(e2e) || len(spec.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2e), len(layer))
	}
	for i, m := range spec.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	// Metrics the parent process adds from several repetitions.
	seen := map[string]bool{"sim_ns_per_host_s": true, "setup_s": true, "peak_rss_mib": true, "trace.overhead_frac": true}
	for _, w := range workloads {
		plain := runRep(w, 17, testSizes, nil, func() {})
		tr := newTracer(17)
		traced := runRep(w, 17, testSizes, tr, func() {})
		for _, r := range []repResult{plain, traced} {
			if r.Error != "" {
				t.Fatalf("%s (traced %v): %s", w.name, r.Traced, r.Error)
			}
			if r.SimNS <= 0 || r.HostS <= 0 {
				t.Errorf("%s: window covered %d sim ns in %v host s", w.name, r.SimNS, r.HostS)
			}
			for name := range r.Metrics {
				if _, ok := metricByName[name]; !ok {
					t.Errorf("%s reports %s, which the metric table lacks", w.name, name)
				}
				seen[name] = true
			}
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: wrapping the manager changed the digest: %s untraced, %s traced", w.name, plain.Digest, traced.Digest)
		}
		m := traced.Metrics
		switch w.name {
		case "gups-idlepage":
			if v, ok := m["pebs.pushed"]; !ok || v != 0 {
				t.Errorf("gups-idlepage: pebs.pushed = %v (reported %v), want 0", v, ok)
			}
		case "kvs-memmode":
			if m["memmode.observe_traffic.calls"] != m["machine.steps"] || m["machine.steps"] == 0 {
				t.Errorf("kvs-memmode: %v observe_traffic calls over %v steps", m["memmode.observe_traffic.calls"], m["machine.steps"])
			}
			for name := range m {
				if strings.HasPrefix(name, "core.") {
					t.Errorf("kvs-memmode reports %s, but runs no HeMem", name)
				}
			}
		case "diurnal-idle":
			if want := float64(traced.SimNS / hemem.Millisecond); m["machine.steps"] != want {
				t.Errorf("diurnal-idle: %v steps over %d sim ns, want one per 1 ms = %v", m["machine.steps"], traced.SimNS, want)
			}
		}
		if len(tr.spans) > 0 && tr.spans[0].Parent != -1 {
			t.Errorf("%s: first span %+v is not a step", w.name, tr.spans[0])
		}
	}
	for _, d := range metricDefs {
		if !seen[d.Name] {
			t.Errorf("no workload reports %s", d.Name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1, 2], n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	speed := metricByName["sim_ns_per_host_s"]
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"same", speed, []float64{100, 99, 101, 100, 100, 98, 102, 100, 99, 101}, "within bound"},
		{"all faster", speed, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "better"},
		{"much slower", speed, []float64{70, 71, 69, 70, 72, 68, 70, 71, 69, 70}, "worse"},
		{"exact counter moved", metricByName["machine.steps"], []float64{101, 101, 101}, "worse"},
	} {
		a := base
		if c.d.Exact {
			a = []float64{100, 100, 100}
		}
		if got := verdict(c.d, a, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	if got := verdict(speed, noisy, noisy); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}
