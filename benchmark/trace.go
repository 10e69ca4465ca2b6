package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"github.com/tieredmem/hemem"
	"github.com/tieredmem/hemem/internal/machine"
)

// The traced repetition times the machine's calls into each manager from
// outside the program: the manager is wrapped by embedding, so every
// optional interface the machine looks for is still promoted, and only
// the timed methods are overridden. The machine calls OnQuantum exactly
// once, at the end of every step, under the fixed and the adaptive loop
// alike, so the gap between consecutive OnQuantum returns is one step's
// host time; the step's self time is that gap minus the wrapped callbacks
// inside it. The event queue (HeMem's policy tick) runs outside any
// callback and so stays in the step's self time.

// layerID names a timed manager callback.
type layerID int

const (
	layerOnQuantum layerID = iota
	layerPageIn
	layerOnMigrated
	layerObserveTraffic
	layerCost
	numLayers
)

var layerNames = [numLayers]string{
	"core.on_quantum",
	"core.page_in",
	"core.on_migrated",
	"memmode.observe_traffic",
	"memmode.cost",
}

// spanSampleP is the chance a step keeps its span records. Steps are
// chosen by a seeded Bernoulli draw, never by a fixed stride: the Memory
// Mode model refresh (every 50 quanta) and HeMem's policy tick (every 10)
// are periodic, and a stride would alias with them.
const spanSampleP = 1.0 / 64

// span is one timed interval; Parent indexes the enclosing span, -1 for a
// step.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer accumulates call counts and host time per layer, the per-step
// time histogram, and the sampled spans of one repetition.
type tracer struct {
	t0 time.Time

	calls [numLayers]int64
	ns    [numLayers]int64 // every call, set-up included
	inNS  [numLayers]int64 // calls inside timed steps

	inWindow  bool
	stepStart int64
	stepCB    int64 // callback time inside the current step
	steps     int64
	stepNS    int64
	selfNS    int64
	hist      stepHist

	rng     *rand.Rand
	sampled bool
	curStep int
	spans   []span
}

func newTracer(seed uint64) *tracer {
	return &tracer{t0: time.Now(), rng: rand.New(rand.NewPCG(seed, 0x7472616365))}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end closes a callback that started at start and returns the time it
// ended. The machine never calls one manager callback from inside
// another, so callback times add up without overlap.
func (t *tracer) end(l layerID, start int64) int64 {
	end := t.now()
	d := end - start
	t.calls[l]++
	t.ns[l] += d
	if !t.inWindow {
		return end
	}
	t.stepCB += d
	t.inNS[l] += d
	if t.sampled {
		t.spans = append(t.spans, span{Name: layerNames[l], Start: start, End: end, Parent: t.curStep})
	}
	return end
}

// stepDone closes the current step at end; the next one starts at once.
func (t *tracer) stepDone(end int64) {
	if !t.inWindow {
		return
	}
	d := end - t.stepStart
	t.steps++
	t.stepNS += d
	t.selfNS += d - t.stepCB
	t.hist.add(d)
	if t.sampled {
		t.spans[t.curStep].End = end
	}
	t.startStep(end)
}

func (t *tracer) startStep(at int64) {
	t.stepStart, t.stepCB = at, 0
	t.sampled = t.rng.Float64() < spanSampleP
	if t.sampled {
		t.curStep = len(t.spans)
		t.spans = append(t.spans, span{Name: "machine.step", Start: at, Parent: -1})
	}
}

func (t *tracer) startWindow() {
	t.inWindow = true
	t.startStep(t.now())
}

// stopWindow drops the step the window's last OnQuantum opened.
func (t *tracer) stopWindow() {
	t.inWindow = false
	if t.sampled {
		t.spans = t.spans[:t.curStep]
		t.sampled = false
	}
}

// metrics reports the per-layer splits. Layers the workload never called
// are left out, so a manager's metrics appear only where it runs.
func (t *tracer) metrics(m map[string]float64) {
	if t.steps > 0 {
		m["machine.steps"] = float64(t.steps)
		m["machine.step.host_s"] = float64(t.stepNS) / 1e9
		m["machine.step.self_host_s"] = float64(t.selfNS) / 1e9
		m["machine.step.self_share"] = float64(t.selfNS) / float64(t.stepNS)
		m["machine.step.p50_ns"] = t.hist.quantile(0.50)
		m["machine.step.p99_ns"] = t.hist.quantile(0.99)
		m["machine.step.p999_ns"] = t.hist.quantile(0.999)
	}
	for l := layerID(0); l < numLayers; l++ {
		if t.calls[l] == 0 {
			continue
		}
		name := layerNames[l]
		m[name+".calls"] = float64(t.calls[l])
		m[name+".host_s"] = float64(t.ns[l]) / 1e9
		if t.stepNS > 0 {
			m[name+".share"] = float64(t.inNS[l]) / float64(t.stepNS)
		}
	}
}

// writeSpans saves the sampled spans as JSON.
func (t *tracer) writeSpans(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		SampleP  float64 `json:"step_sample_p"`
		Spans    []span  `json:"spans"`
	}{workload, seed, spanSampleP, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stepHist is a fixed log-bucket histogram of step durations: eight
// buckets per power of two, so a quantile is within about 6% of the true
// value.
type stepHist struct {
	n     [64 * 8]uint64
	total uint64
}

func (h *stepHist) add(ns int64) {
	v := uint64(max(ns, 1))
	e := bits.Len64(v) - 1
	var sub uint64
	if e >= 3 {
		sub = v >> (e - 3) & 7
	} else {
		sub = v << (3 - e) & 7
	}
	h.n[e*8+int(sub)]++
	h.total++
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *stepHist) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.n {
		cum += c
		if c > 0 && cum >= rank {
			lo := math.Ldexp(1+float64(i%8)/8, i/8)
			return lo * (1 + 1.0/16/(1+float64(i%8)/8))
		}
	}
	return 0
}

// tracedHeMem times the machine's calls into HeMem.
type tracedHeMem struct {
	*hemem.HeMem
	t *tracer
}

func (w tracedHeMem) OnQuantum(now, dt int64) {
	s := w.t.now()
	w.HeMem.OnQuantum(now, dt)
	w.t.stepDone(w.t.end(layerOnQuantum, s))
}

func (w tracedHeMem) PageIn(p *hemem.Page) {
	s := w.t.now()
	w.HeMem.PageIn(p)
	w.t.end(layerPageIn, s)
}

func (w tracedHeMem) OnMigrated(p *hemem.Page) {
	s := w.t.now()
	w.HeMem.OnMigrated(p)
	w.t.end(layerOnMigrated, s)
}

// tracedMM times the machine's calls into Memory Mode. Its OnQuantum is
// empty, so it only marks the step boundary; PageIn only sets a tier.
type tracedMM struct {
	*hemem.MemoryMode
	t *tracer
}

func (w tracedMM) OnQuantum(now, dt int64) {
	w.MemoryMode.OnQuantum(now, dt)
	w.t.stepDone(w.t.now())
}

func (w tracedMM) ObserveTraffic(now int64, comps []hemem.Component, occRates []float64) {
	s := w.t.now()
	w.MemoryMode.ObserveTraffic(now, comps, occRates)
	w.t.end(layerObserveTraffic, s)
}

func (w tracedMM) ComponentCost(c hemem.Component) machine.CompCost {
	s := w.t.now()
	cc := w.MemoryMode.ComponentCost(c)
	w.t.end(layerCost, s)
	return cc
}

func (w tracedMM) ComponentBranches(c hemem.Component) []machine.CostBranch {
	s := w.t.now()
	br := w.MemoryMode.ComponentBranches(c)
	w.t.end(layerCost, s)
	return br
}
