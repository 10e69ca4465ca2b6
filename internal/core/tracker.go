// Tracker: the access-observation half of the engine. HeMem's original
// design hard-wired PEBS sampling into the manager; the Tracker interface
// breaks that monopoly so rival observation mechanisms — a DAMON-style
// adaptive region sampler, an idlepage/soft-dirty page-table scanner —
// can drive the very same policies on equal footing (the comparison the
// PEBS-applicability and HM-Keeper papers call for). The trackers table
// lists every implementation by name; Config.Tracker selects one.
package core

import (
	"sort"

	"github.com/tieredmem/hemem/internal/pebs"
)

// Tracker observes memory accesses on behalf of the engine and feeds
// per-quantum observation batches to the active Policy through
// HeMem.Observe. Implementations are listed in the trackers table and
// selected by Config.Tracker.
type Tracker interface {
	// Name identifies the tracker in reports and -list output.
	Name() string
	// Attach wires the tracker to its host engine; called once from
	// HeMem.Attach, after the tier chain is initialized.
	Attach(h *HeMem)
	// PageIn is called when a managed page enters tracking (first touch
	// or growth adoption), after the page is placed and queued.
	PageIn(pi *PageInfo)
	// PageOut is called when a managed page leaves tracking (region
	// release), before its state is dropped.
	PageOut(pi *PageInfo)
	// Poll runs one quantum of observation work (draining sample
	// buffers, sampling regions, completing scan passes), delivering
	// observations via HeMem.Observe.
	Poll(now, dt int64)
	// Tick runs once per policy interval, before migration decisions
	// (e.g. PEBS adaptive-sampling period control).
	Tick(now int64)
}

// trackers is every tracker Config.Tracker can name, with its
// constructor.
var trackers = map[string]func(cfg Config) Tracker{
	"damon":    func(Config) Tracker { return &damonTracker{} },
	"idlepage": func(Config) Tracker { return &idlePageTracker{} },
	"pebs":     func(cfg Config) Tracker { return newPEBSTracker(cfg) },
}

// TrackerNames returns every tracker name, sorted.
func TrackerNames() []string { return sortedNames(trackers) }

// sortedNames returns the names of a constructor table, sorted.
func sortedNames[F any](table map[string]F) []string {
	out := make([]string, 0, len(table))
	for n := range table {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pebsTracker is the paper's observation mechanism (§3.1): the CPU writes
// a sample record per SamplePeriod accesses into a fixed buffer, and a
// dedicated reader thread drains it at a bounded rate. It preserves both
// Figure 10 failure modes — buffer overruns at low periods, starvation at
// high ones — and owns the adaptive-sampling response to overruns.
type pebsTracker struct {
	h       *HeMem
	buffer  *pebs.Buffer
	sampler *pebs.Sampler
	reader  *pebs.Reader

	// recScratch is the reusable record batch the reader drains into
	// each quantum.
	recScratch []pebs.Record
	// piScratch holds the PageInfos observeBatch resolves for a batch.
	piScratch []*PageInfo
	// touchSink consumes the resolve pass's PageInfo reads; without a
	// use, the compiler deletes the loads that pull each PageInfo into
	// cache ahead of Observe.
	touchSink uint32

	// Adaptive-sampling state: buffer counters at the last policy tick
	// and the current run of overrunning ticks.
	lastPushed    uint64
	lastDropped   uint64
	overrunStreak int
}

// newPEBSTracker builds the sampler/buffer/reader pipeline from an
// already-defaulted config.
func newPEBSTracker(cfg Config) *pebsTracker {
	t := &pebsTracker{}
	var err error
	if t.buffer, err = pebs.NewBuffer(pebsBufferCap); err == nil {
		if t.sampler, err = pebs.NewSampler(cfg.SamplePeriod, t.buffer); err == nil {
			t.reader, err = pebs.NewReader(pebs.DefaultReaderRate)
		}
	}
	if err != nil {
		// Internal invariant: New normalized SamplePeriod to a positive
		// finite value before constructing the tracker.
		panic("core: " + err.Error())
	}
	return t
}

// Name implements Tracker.
func (t *pebsTracker) Name() string { return "pebs" }

// Attach implements Tracker.
func (t *pebsTracker) Attach(h *HeMem) { t.h = h }

// PageIn implements Tracker: PEBS needs no per-page setup — samples
// arrive tagged with the page they hit.
func (t *pebsTracker) PageIn(pi *PageInfo) {}

// PageOut implements Tracker: stale records for a released page are
// filtered by the engine's page table on drain.
func (t *pebsTracker) PageOut(pi *PageInfo) {}

// Sampler implements the optional sampler source consulted by
// HeMem.Sampler (machine.SampleSource): the machine feeds this sampler
// from the traffic streams each quantum.
func (t *pebsTracker) Sampler() *pebs.Sampler { return t.sampler }

// Buffer exposes the sample buffer (drop statistics for Figure 10).
func (t *pebsTracker) Buffer() *pebs.Buffer { return t.buffer }

// Poll implements Tracker: the PEBS thread drains the sample buffer at
// its bounded rate and hands each record to the policy. Records are
// popped in batches into a reusable scratch slice so the per-sample path
// involves no allocation.
func (t *pebsTracker) Poll(now, dt int64) {
	if t.recScratch == nil {
		t.recScratch = make([]pebs.Record, 1024)
	}
	grant := dt
	for {
		n := t.reader.DrainBatch(t.buffer, grant, t.recScratch)
		grant = 0
		t.observeBatch(t.recScratch[:n])
		if n < len(t.recScratch) {
			break
		}
	}
	t.reader.Settle(dt)
}

// observeBatch classifies a drained batch of records in two passes. The
// resolve pass maps every record to its PageInfo through the windowed
// page table (nil for unmanaged pages) and touches the PageInfo, so the
// batch's independent window and PageInfo loads are issued back to back
// instead of one dependent chain per record. The apply pass then calls
// Observe in record order. Observe never adds or removes a PageInfo, so
// resolving the whole batch up front yields exactly the PageInfos a
// per-record lookup would.
func (t *pebsTracker) observeBatch(recs []pebs.Record) {
	windows := t.h.pages.windows
	if cap(t.piScratch) < len(recs) {
		t.piScratch = make([]*PageInfo, len(recs))
	}
	resolved := t.piScratch[:len(recs)]
	var touch uint32
	for i := range recs {
		var pi *PageInfo
		id := int(recs[i].Page)
		if wi := id >> piWindowShift; wi < len(windows) && windows[wi] != nil {
			if pi = &windows[wi][id&piWindowMask]; pi.Page != nil {
				touch ^= pi.CoolClock
			} else {
				pi = nil
			}
		}
		resolved[i] = pi
	}
	t.touchSink ^= touch
	pol := t.h.pol
	for i, pi := range resolved {
		if pi != nil {
			pol.Observe(pi, recs[i].Kind == pebs.Store, 1)
		}
	}
	clear(resolved)
}

// Tick implements Tracker: adaptive sample-period control, run at the
// top of every policy interval when Config.AdaptiveSampling is set.
func (t *pebsTracker) Tick(now int64) {
	if t.h.cfg.AdaptiveSampling {
		t.adaptSampling()
	}
}

// adaptSampling raises the PEBS sample period when the buffer overruns
// persistently: each policy tick inspects the drop fraction of the records
// offered since the last tick, and after overrunPatience consecutive
// overrunning ticks the period doubles, up to maxPeriodFactor times
// Config.SamplePeriod. Trading sample resolution for a sustainable inflow
// keeps the reader tracking the hot set instead of losing a bursty,
// biased slice of it to buffer overruns (the Figure 10 regime).
func (t *pebsTracker) adaptSampling() {
	h := t.h
	pushed, dropped := t.buffer.Pushed(), t.buffer.Dropped()
	dp, dd := pushed-t.lastPushed, dropped-t.lastDropped
	t.lastPushed, t.lastDropped = pushed, dropped
	total := dp + dd
	if total == 0 {
		return
	}
	if float64(dd)/float64(total) <= overrunDropThreshold {
		t.overrunStreak = 0
		return
	}
	t.overrunStreak++
	if t.overrunStreak < overrunPatience {
		return
	}
	t.overrunStreak = 0
	maxPeriod := maxPeriodFactor * h.cfg.SamplePeriod
	if t.sampler.Period >= maxPeriod {
		return
	}
	p := t.sampler.Period * 2
	if p > maxPeriod {
		p = maxPeriod
	}
	t.sampler.Period = p
	h.m.FaultCounters().SamplePeriodRaises++
}
