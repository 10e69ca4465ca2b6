package pebs

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// mustBuffer/mustSampler/mustReader wrap the error-returning constructors
// for tests that only use valid parameters.
func mustBuffer(t *testing.T, capacity int) *Buffer {
	t.Helper()
	b, err := NewBuffer(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustSampler(t *testing.T, period float64, buf *Buffer) *Sampler {
	t.Helper()
	s, err := NewSampler(period, buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustReader(t *testing.T, rate float64) *Reader {
	t.Helper()
	r, err := NewReader(rate)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBufferFIFO(t *testing.T) {
	b := mustBuffer(t, 4)
	for i := 0; i < 3; i++ {
		if !b.Push(Record{Page: vm.PageID(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 0; i < 3; i++ {
		r, ok := b.Pop()
		if !ok || r.Page != vm.PageID(i) {
			t.Fatalf("pop %d = %v,%v", i, r.Page, ok)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestBufferOverrunDrops(t *testing.T) {
	b := mustBuffer(t, 2)
	b.Push(Record{Page: 1})
	b.Push(Record{Page: 2})
	if b.Push(Record{Page: 3}) {
		t.Fatal("push into full buffer succeeded")
	}
	if b.Dropped() != 1 || b.Pushed() != 2 {
		t.Fatalf("dropped=%d pushed=%d", b.Dropped(), b.Pushed())
	}
	if got := b.DropFraction(); got < 0.33 || got > 0.34 {
		t.Fatalf("DropFraction = %v, want 1/3", got)
	}
	// Draining frees space again.
	b.Pop()
	if !b.Push(Record{Page: 4}) {
		t.Fatal("push after pop failed")
	}
}

func TestBufferWrapAround(t *testing.T) {
	b := mustBuffer(t, 3)
	next := vm.PageID(0)
	expect := vm.PageID(0)
	for round := 0; round < 50; round++ {
		for b.Push(Record{Page: next}) {
			next++
		}
		for {
			r, ok := b.Pop()
			if !ok {
				break
			}
			if r.Page != expect {
				t.Fatalf("round %d: got %d want %d", round, r.Page, expect)
			}
			expect++
		}
	}
}

// feed runs Take for n accesses of class c and pushes one copy of rec per
// sample, as the machine's feed does, returning the sample count.
func feed(s *Sampler, n float64, c Class, rec Record) int {
	k := s.Take(n, c)
	for i := 0; i < k; i++ {
		s.Buffer().Push(rec)
	}
	return k
}

// drain runs one quantum of the reader the way the PEBS tracker's poll
// does: DrainBatch into a small scratch slice until a batch comes back
// short, then Settle. It returns the records popped, oldest first.
func drain(r *Reader, b *Buffer, dt int64) []Record {
	var out []Record
	dst := make([]Record, 64)
	for grant := dt; ; grant = 0 {
		n := r.DrainBatch(b, grant, dst)
		out = append(out, dst[:n]...)
		if n < len(dst) {
			break
		}
	}
	r.Settle(dt)
	return out
}

func TestSamplerPeriod(t *testing.T) {
	b := mustBuffer(t, 1<<20)
	s := mustSampler(t, 5000, b)
	picked := 0

	// 1M accesses at period 5000 → exactly 200 samples.
	for i := 0; i < 100; i++ {
		picked += feed(s, 10_000, ClassStore, Record{Page: 7, Kind: Store})
	}
	if b.Len() != 200 || picked != 200 {
		t.Fatalf("samples = %d (picked %d), want 200", b.Len(), picked)
	}
	r, _ := b.Pop()
	if r.Kind != Store || r.Page != 7 {
		t.Fatalf("record = %+v", r)
	}
}

func TestSamplerFractionalCarry(t *testing.T) {
	b := mustBuffer(t, 1<<16)
	s := mustSampler(t, 1000, b)
	// Feed 0.1 accesses 20,000 times = 2000 accesses = 2 samples.
	for i := 0; i < 20000; i++ {
		feed(s, 0.1, ClassLoad, Record{Page: 1, Kind: LoadNVM})
	}
	if got := int(b.Pushed()); got < 1 || got > 3 {
		t.Fatalf("fractional feed produced %d samples, want ~2", got)
	}
}

func TestSamplerKindsIndependent(t *testing.T) {
	b := mustBuffer(t, 1<<16)
	s := mustSampler(t, 100, b)
	feed(s, 99, ClassStore, Record{Page: 1, Kind: Store})
	feed(s, 99, ClassLoad, Record{Page: 1, Kind: LoadNVM})
	if b.Len() != 0 {
		t.Fatal("kinds should carry independently below one period")
	}
	feed(s, 1, ClassStore, Record{Page: 1, Kind: Store})
	if b.Len() != 1 {
		t.Fatal("store carry lost")
	}
}

// Take's one-step carry subtraction leaves the same count and the same
// float64 carry as the unit-decrement loop it stands for, over sequences
// of fractional and large inflows.
func TestTakeMatchesUnitDecrementLoop(t *testing.T) {
	f := func(raw []uint16, periodRaw uint16) bool {
		period := float64(periodRaw%5000) + 1.5
		s, err := NewSampler(period, &Buffer{buf: make([]Record, 1)})
		if err != nil {
			return false
		}
		var carry float64
		for i, x := range raw {
			n := float64(x) * 0.37 / float64(1+i%7)
			// The unit-decrement reference.
			carry += n / period
			want := 0
			for carry >= 1 {
				carry--
				want++
			}
			if s.Take(n, ClassLoad) != want || s.carry[ClassLoad] != carry {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderBoundedRate(t *testing.T) {
	b := mustBuffer(t, 1<<16)
	for i := 0; i < 1000; i++ {
		b.Push(Record{Page: vm.PageID(i)})
	}
	r := mustReader(t, 100_000) // 100k/s
	got := drain(r, b, 1*sim.Millisecond)
	if len(got) != 100 {
		t.Fatalf("drained %d in 1ms at 100k/s, want 100", len(got))
	}
	for i, rec := range got {
		if rec.Page != vm.PageID(i) {
			t.Fatalf("record %d is page %d, want FIFO order", i, rec.Page)
		}
	}
	if b.Len() != 900 {
		t.Fatalf("buffer len = %d, want 900", b.Len())
	}
	// Budget does not bank across idle quanta beyond one quantum.
	empty := mustBuffer(t, 16)
	r2 := mustReader(t, 100_000)
	drain(r2, empty, 100*sim.Millisecond)
	for i := 0; i < 16; i++ {
		empty.Push(Record{})
	}
	if n := len(drain(r2, empty, 1*sim.Millisecond)); n > 16 {
		t.Fatalf("reader banked unbounded budget: %d", n)
	}
}

// Batched draining pops the same records, in the same order, and leaves
// the same float64 budget as the per-record loop it stands for (pop one
// record per whole unit of budget, then settle), across idle quanta,
// partial drains and scratch-sized batch boundaries.
func TestDrainBatchMatchesPerRecordDrain(t *testing.T) {
	f := func(pushes []uint8, dts []uint16, rateRaw uint32) bool {
		rate := float64(rateRaw%1_000_000) + 1000
		ba, bb := &Buffer{buf: make([]Record, 300)}, &Buffer{buf: make([]Record, 300)}
		ra, rb := &Reader{RatePerSec: rate}, &Reader{RatePerSec: rate}
		next := vm.PageID(0)
		for i, dt16 := range dts {
			if i < len(pushes) {
				for j := 0; j < int(pushes[i]); j++ {
					ba.Push(Record{Page: next})
					bb.Push(Record{Page: next})
					next++
				}
			}
			dt := int64(dt16) * 1000
			got := drain(ra, ba, dt)
			// The per-record reference.
			rb.carry += rb.RatePerSec * float64(dt) / 1e9
			var want []Record
			for rb.carry >= 1 {
				rec, ok := bb.Pop()
				if !ok {
					break
				}
				rb.carry--
				want = append(want, rec)
			}
			rb.Settle(dt)
			if len(got) != len(want) || ra.carry != rb.carry || ba.Len() != bb.Len() {
				return false
			}
			for k := range got {
				if got[k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: when generation rate exceeds reader rate, drops occur; when
// below, none do (the Figure 10 mechanism).
func TestDropsOnlyWhenOutpaced(t *testing.T) {
	run := func(period float64) float64 {
		b := mustBuffer(t, 4096)
		s := mustSampler(t, period, b)
		r := mustReader(t, DefaultReaderRate)
		// 0.1 Gops/s for 2 simulated seconds, 1 ms quanta.
		for i := 0; i < 2000; i++ {
			feed(s, 100_000, ClassStore, Record{Page: 1, Kind: Store})
			drain(r, b, sim.Millisecond)
		}
		return b.DropFraction()
	}
	if d := run(250); d < 0.1 {
		t.Errorf("period 250: drop fraction %.3f, want >10%% (paper: up to 30%%)", d)
	}
	if d := run(5000); d > 0.001 {
		t.Errorf("period 5000: drop fraction %.4f, want ~0", d)
	}
}

// Property: pushed + dropped equals total offered, and Len never exceeds
// capacity.
func TestBufferConservation(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%64) + 1
		b, err := NewBuffer(capacity)
		if err != nil {
			return false
		}
		var offered, popped uint64
		for _, push := range ops {
			if push {
				b.Push(Record{})
				offered++
			} else if _, ok := b.Pop(); ok {
				popped++
			}
			if b.Len() > b.Cap() {
				return false
			}
		}
		return b.Pushed()+b.Dropped() == offered && b.Pushed()-popped == uint64(b.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewBuffer(0); err == nil {
		t.Error("NewBuffer(0): no error on invalid capacity")
	}
	if _, err := NewBuffer(-5); err == nil {
		t.Error("NewBuffer(-5): no error on negative capacity")
	}
	for _, p := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSampler(p, mustBuffer(t, 1)); err == nil {
			t.Errorf("NewSampler(%v, buf): no error on invalid period", p)
		}
	}
	if _, err := NewSampler(100, nil); err == nil {
		t.Error("NewSampler(_, nil): no error on nil buffer")
	}
	if _, err := NewReader(0); err == nil {
		t.Error("NewReader(0): no error on invalid rate")
	}
}

func TestKindString(t *testing.T) {
	if LoadDRAM.String() != "load-dram" || LoadNVM.String() != "load-nvm" || Store.String() != "store" {
		t.Fatal("Kind strings wrong")
	}
}

// TestPushBatchMatchesSequentialPush drives two buffers through the same
// record stream — one via PushBatch, one via per-record Push — across
// fills, drains, wrap-around, and overflow, and requires identical ring
// contents and pushed/dropped counters throughout.
func TestPushBatchMatchesSequentialPush(t *testing.T) {
	a, _ := NewBuffer(7)
	b, _ := NewBuffer(7)
	next := vm.PageID(0)
	gen := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Page: next, Kind: Kind(int(next) % 3)}
			next++
		}
		return recs
	}
	check := func(step string) {
		t.Helper()
		if a.Len() != b.Len() || a.Pushed() != b.Pushed() || a.Dropped() != b.Dropped() {
			t.Fatalf("%s: batch len/pushed/dropped = %d/%d/%d, sequential = %d/%d/%d",
				step, a.Len(), a.Pushed(), a.Dropped(), b.Len(), b.Pushed(), b.Dropped())
		}
	}
	drainBoth := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ra, oka := a.Pop()
			rb, okb := b.Pop()
			if oka != okb || ra != rb {
				t.Fatalf("drain %d: batch (%v, %v) != sequential (%v, %v)", i, ra, oka, rb, okb)
			}
		}
	}
	// Batch sizes chosen to hit: partial fill, exact fill, overflow of a
	// full buffer, overflow of a partly full wrapped buffer, empty batch.
	for _, n := range []int{3, 4, 9, 0, 2, 5} {
		recs := gen(n)
		accepted := a.PushBatch(recs)
		wantAccepted := 0
		for _, r := range recs {
			if b.Push(r) {
				wantAccepted++
			}
		}
		if accepted != wantAccepted {
			t.Fatalf("PushBatch(%d recs) accepted %d, sequential accepted %d", n, accepted, wantAccepted)
		}
		check("after push")
		drainBoth(2)
		check("after drain")
	}
	drainBoth(a.Len() + 1) // includes the empty-pop case
	check("after full drain")
}
