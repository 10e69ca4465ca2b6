package core

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/pebs"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// testTable returns a page table holding n tracked pages and k queues.
// The page IDs step by 300, so the pages span several windows.
func testTable(n, k int) (*pageTable, []*PageInfo, []List) {
	pt := &pageTable{}
	lists := pt.makeLists(k)
	pis := make([]*PageInfo, n)
	for i := range pis {
		pis[i] = pt.track(&vm.Page{ID: vm.PageID(300 * i)}, 0)
	}
	return pt, pis, lists
}

// walk returns l's entries front to back, failing unless the backward
// walk is its mirror image and both agree with Len.
func walk(t *testing.T, l *List) []*PageInfo {
	t.Helper()
	var fwd, back []*PageInfo
	for pi := l.Front(); pi != nil; pi = l.Next(pi) {
		fwd = append(fwd, pi)
	}
	for pi := l.Back(); pi != nil; pi = l.Prev(pi) {
		back = append(back, pi)
	}
	if len(fwd) != l.Len() || len(back) != l.Len() {
		t.Fatalf("list %q: walked %d forward, %d backward, Len %d", l.Name, len(fwd), len(back), l.Len())
	}
	for i := range fwd {
		if fwd[i] != back[len(back)-1-i] {
			t.Fatalf("list %q: backward walk differs at position %d", l.Name, i)
		}
	}
	return fwd
}

// The tracking record is 24 bytes with this field order; a window is
// 2048 of them, 48 KiB.
func TestPageInfoLayout(t *testing.T) {
	var pi PageInfo
	if got := unsafe.Sizeof(pi); got != 24 {
		t.Fatalf("PageInfo is %d bytes, want 24", got)
	}
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Page", unsafe.Offsetof(pi.Page), 0},
		{"prev", unsafe.Offsetof(pi.prev), 8},
		{"next", unsafe.Offsetof(pi.next), 12},
		{"CoolClock", unsafe.Offsetof(pi.CoolClock), 16},
		{"Reads", unsafe.Offsetof(pi.Reads), 20},
		{"Writes", unsafe.Offsetof(pi.Writes), 21},
		{"list", unsafe.Offsetof(pi.list), 22},
		{"WriteHeavy", unsafe.Offsetof(pi.WriteHeavy), 23},
	} {
		if f.got != f.want {
			t.Errorf("PageInfo.%s at offset %d, want %d", f.name, f.got, f.want)
		}
	}
	if got := unsafe.Sizeof(piWindow{}); got != 49152 {
		t.Fatalf("piWindow is %d bytes, want 49152", got)
	}
}

// The allocator charges a window exactly its size: no allocation header
// and no size-class slack. unsafe.Sizeof cannot see either; a 1024-record
// window (24,576 bytes with pointers) would be charged 27,264.
func TestPageInfoWindowAllocation(t *testing.T) {
	const n = 64
	size := uint64(unsafe.Sizeof(piWindow{}))
	windows := make([]*piWindow, n)
	var charged uint64
	// Up to three tries, so a stray allocation by the runtime during one
	// of them cannot fail the test.
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range windows {
			windows[i] = new(piWindow)
		}
		runtime.ReadMemStats(&after)
		if charged = (after.TotalAlloc - before.TotalAlloc) / n; charged == size {
			return
		}
	}
	t.Fatalf("a %d-byte window is charged %d bytes", size, charged)
}

// Sample counters saturate at 255 instead of wrapping, both in addCount
// and through the hemem policy's Observe under NoCooling, the one
// configuration that lets a counter get there.
func TestPageInfoCountersSaturate(t *testing.T) {
	for _, c := range []struct {
		c    uint8
		n    int
		want uint8
	}{
		{0, 0, 0},
		{5, 3, 8},
		{252, 2, 254},
		{252, 3, 255},
		{252, 4, 255},
		{255, 0, 255},
		{255, 1, 255},
		{0, 256, 255},
		{5, math.MaxInt, 255},
	} {
		if got := addCount(c.c, c.n); got != c.want {
			t.Errorf("addCount(%d, %d) = %d, want %d", c.c, c.n, got, c.want)
		}
	}
	cfg := DefaultConfig()
	cfg.NoCooling = true
	_, h, r := smallMachine(cfg)
	pi := h.info(r.PageAt(40).ID)
	pi.Reads, pi.Writes = 253, 254
	before := h.Stats().Samples
	h.pol.Observe(pi, false, 10)
	h.pol.Observe(pi, true, math.MaxInt32)
	if pi.Reads != 255 || pi.Writes != 255 {
		t.Fatalf("counters reads=%d writes=%d, want both 255", pi.Reads, pi.Writes)
	}
	if got := h.Stats().Samples - before; got != 10+math.MaxInt32 {
		t.Fatalf("Samples grew by %d, want every observed sample", got)
	}
	if !pi.WriteHeavy || h.hotList(r.PageAt(40).Tier).Front() != pi {
		t.Fatal("saturated write-heavy page not at the front of its hot list")
	}
}

// counterProbe wraps a policy and records, for every observation, the
// counter value it adds to plus the observed count: an upper bound on
// what the counter holds before any halving.
type counterProbe struct {
	Policy
	max, maxN int
}

func (p *counterProbe) Observe(pi *PageInfo, write bool, n int) {
	c := pi.Reads
	if write {
		c = pi.Writes
	}
	p.max = max(p.max, int(c)+n)
	p.maxN = max(p.maxN, n)
	p.Policy.Observe(pi, write, n)
}

// With cooling on, no sample counter reaches 255, so saturation never
// changes a classification: at the threshold caps and at seeded random
// thresholds, under the PEBS, idlepage and damon feeds, no observation
// exceeds N, the larger hot threshold, and none lifts a counter above
// max(CoolThreshold-1, N)+N before halving.
func TestCountersNeverSaturateWithCooling(t *testing.T) {
	for _, tracker := range []string{"pebs", "idlepage", "damon"} {
		for _, seed := range []uint64{1, 2} {
			rng := sim.NewRand(seed)
			for _, th := range [][3]int{
				{maxThreshold, maxThreshold, maxThreshold},
				{1 + rng.Intn(maxThreshold), 1 + rng.Intn(maxThreshold), 1 + rng.Intn(maxThreshold)},
			} {
				h := New(Config{Tracker: tracker, HotReadThreshold: th[0], HotWriteThreshold: th[1], CoolThreshold: th[2],
					FreeTargets: map[vm.TierID]int64{vm.TierDRAM: 64 * sim.MB}})
				probe := &counterProbe{Policy: h.pol}
				h.pol = probe
				mcfg := machine.DefaultConfig()
				mcfg.Seed = seed
				mcfg.Tiers = machine.ClassicTiers(512*sim.MB, 0, 0)
				m := machine.New(mcfg, h)
				m.AddWorkload(newSetMixWorkload(m, seed))
				m.Warm()
				m.Run(5 * sim.Second)

				nMax := max(th[0], th[1])
				if probe.maxN > nMax {
					t.Errorf("%s seed %d thresholds %v: an observation of %d, above the largest hot threshold", tracker, seed, th, probe.maxN)
				}
				if bound := max(th[2]-1, nMax) + nMax; probe.max > bound || probe.max >= 255 {
					t.Errorf("%s seed %d thresholds %v: a counter reached %d before halving, bound %d", tracker, seed, th, probe.max, bound)
				}
				if h.Stats().CoolEpochs == 0 {
					t.Errorf("%s seed %d thresholds %v: the cooling clock never advanced", tracker, seed, th)
				}
				t.Logf("%s seed %d thresholds %v: largest count before halving %d, largest observation %d, %d cool epochs",
					tracker, seed, th, probe.max, probe.maxN, h.Stats().CoolEpochs)
			}
		}
	}
}

func TestListFIFO(t *testing.T) {
	_, p, ls := testTable(3, 1)
	l := &ls[0]
	a, b, c := p[0], p[1], p[2]
	l.PushBack(a)
	l.PushBack(b)
	l.PushBack(c)
	if l.Len() != 3 || l.Front() != a || l.Back() != c {
		t.Fatalf("list state wrong: len=%d", l.Len())
	}
	if got := l.PopFront(); got != a {
		t.Fatal("PopFront != a")
	}
	if got := l.PopFront(); got != b {
		t.Fatal("PopFront != b")
	}
	if got := l.PopFront(); got != c {
		t.Fatal("PopFront != c")
	}
	if l.PopFront() != nil || l.Len() != 0 {
		t.Fatal("empty list not empty")
	}
}

func TestListPushFrontPriority(t *testing.T) {
	_, p, ls := testTable(3, 1)
	l := &ls[0]
	a, b, w := p[0], p[1], p[2]
	l.PushBack(a)
	l.PushBack(b)
	l.PushFront(w) // write-heavy priority
	if l.PopFront() != w || l.PopFront() != a || l.PopFront() != b {
		t.Fatal("PushFront did not prioritize")
	}
}

func TestListMoveBetweenLists(t *testing.T) {
	pt, ps, ls := testTable(1, 2)
	hot, cold := &ls[0], &ls[1]
	p := ps[0]
	hot.PushBack(p)
	if pt.listOf(p) != hot {
		t.Fatal("not on hot")
	}
	// Pushing onto another list implicitly removes from the first.
	cold.PushBack(p)
	if hot.Len() != 0 || cold.Len() != 1 || pt.listOf(p) != cold {
		t.Fatal("implicit move failed")
	}
	pt.unlink(p)
	if cold.Len() != 0 || pt.listOf(p) != nil {
		t.Fatal("unlink left the page listed")
	}
}

func TestListRemoveMiddle(t *testing.T) {
	_, ps, ls := testTable(5, 1)
	l := &ls[0]
	for _, p := range ps {
		l.PushBack(p)
	}
	l.Remove(ps[2])
	want := []*PageInfo{ps[0], ps[1], ps[3], ps[4]}
	for i, got := range walk(t, l) {
		if got != want[i] {
			t.Fatal("links broken after middle removal")
		}
	}
	for _, w := range want {
		if got := l.PopFront(); got != w {
			t.Fatal("order broken after middle removal")
		}
	}
}

func TestListRemoveWrongListPanics(t *testing.T) {
	_, ps, ls := testTable(1, 2)
	a, b := &ls[0], &ls[1]
	p := ps[0]
	a.PushBack(p)
	defer func() {
		if recover() == nil {
			t.Fatal("Remove from wrong list did not panic")
		}
	}()
	b.Remove(p)
}

// Property: any sequence of operations over two lists keeps each list's
// Len, forward and backward links consistent with an oracle slice and
// preserves FIFO order.
func TestListModelCheck(t *testing.T) {
	f := func(ops []uint8) bool {
		pt, pool, ls := testTable(16, 2)
		oracle := make([][]*PageInfo, len(ls))
		drop := func(p *PageInfo) {
			for k := range ls {
				if pt.listOf(p) == &ls[k] {
					for i, q := range oracle[k] {
						if q == p {
							oracle[k] = append(oracle[k][:i], oracle[k][i+1:]...)
							break
						}
					}
				}
			}
		}
		for _, op := range ops {
			p := pool[int(op)%len(pool)]
			k := int(op/128) % len(ls)
			l := &ls[k]
			switch (op / 16) % 4 {
			case 0: // PushBack
				drop(p)
				l.PushBack(p)
				oracle[k] = append(oracle[k], p)
			case 1: // PushFront
				drop(p)
				l.PushFront(p)
				oracle[k] = append([]*PageInfo{p}, oracle[k]...)
			case 2: // PopFront
				got := l.PopFront()
				if len(oracle[k]) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != oracle[k][0] {
						return false
					}
					oracle[k] = oracle[k][1:]
				}
			case 3: // unlink from whichever list holds it
				drop(p)
				pt.unlink(p)
			}
			for k := range ls {
				got := walk(t, &ls[k])
				if len(got) != len(oracle[k]) {
					return false
				}
				for i := range got {
					if got[i] != oracle[k][i] {
						return false
					}
				}
			}
		}
		// Drain and compare.
		for k := range ls {
			for _, w := range oracle[k] {
				if ls[k].PopFront() != w {
					return false
				}
			}
			if ls[k].Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Releasing a region zeroes its pages' slots, frees every window it
// filled alone, keeps windows it shares with live regions, and leaves no
// list holding its pages.
func TestReleaseFreesPageTable(t *testing.T) {
	h := New(Config{LargeAllocThreshold: 64 * sim.MB})
	mcfg := machine.DefaultConfig()
	mcfg.Tiers = machine.ClassicTiers(1*sim.GB, 0, 0)
	m := machine.New(mcfg, h)
	keep1 := m.AS.Map("keep1", 256*sim.MB) // IDs 0..127: window 0
	victim := m.AS.Map("victim", 8*sim.GB) // IDs 128..4223: windows 0, 1, 2
	keep2 := m.AS.Map("keep2", 256*sim.MB) // IDs 4224..4351: window 2
	m.Warm()
	// Put victim and survivor pages on hot lists, a write-heavy one at
	// the front, so the release unlinks from both ends and the middle.
	for _, p := range []*vm.Page{victim.PageAt(0), keep1.PageAt(3), victim.PageAt(3500), keep2.PageAt(5), victim.PageAt(4095)} {
		feed(m, h, p.ID, pebs.LoadNVM, h.cfg.HotReadThreshold)
	}
	feed(m, h, victim.PageAt(400).ID, pebs.Store, h.cfg.HotWriteThreshold)
	if len(h.pages.windows) != 3 || h.pages.live[1] != piWindowSize {
		t.Fatalf("setup: %d windows, live %v", len(h.pages.windows), h.pages.live)
	}

	m.Unmap(victim)

	for i := 0; i < victim.NumPages(); i++ {
		if pi := h.info(victim.PageAt(i).ID); pi != nil {
			t.Fatalf("victim page %d still tracked: %+v", i, *pi)
		}
	}
	if h.pages.windows[1] != nil {
		t.Fatal("window 1, filled by the victim alone, was not freed")
	}
	if h.pages.windows[0] == nil || h.pages.windows[2] == nil {
		t.Fatal("a window shared with a live region was freed")
	}
	if h.pages.live[0] != 128 || h.pages.live[2] != 128 {
		t.Fatalf("live slots %v, want 128 in windows 0 and 2", h.pages.live)
	}
	for _, w := range []int{0, 2} {
		for s := range h.pages.windows[w] {
			id := w*piWindowSize + s
			if id >= 128 && id < 4224 && h.pages.windows[w][s] != (PageInfo{}) {
				t.Fatalf("released slot of page %d not zeroed: %+v", id, h.pages.windows[w][s])
			}
		}
	}
	listed := 0
	for k := range h.pages.lists[1:] {
		l := &h.pages.lists[1+k]
		for _, pi := range walk(t, l) {
			if victim.Contains(pi.Page.ID) {
				t.Fatalf("list %q still holds released page %d", l.Name, pi.Page.ID)
			}
			if h.info(pi.Page.ID) != pi {
				t.Fatalf("list %q links page %d outside the table", l.Name, pi.Page.ID)
			}
		}
		listed += l.Len()
	}
	if want := keep1.NumPages() + keep2.NumPages(); listed+m.Migrator.QueueLen() != want {
		t.Fatalf("listed %d + in flight %d, want %d survivor pages", listed, m.Migrator.QueueLen(), want)
	}

	// A later mapping tracks into fresh windows.
	next := m.AS.Map("next", 2*sim.GB)
	m.Warm()
	if pi := h.info(next.PageAt(0).ID); pi == nil || pi.Page != next.PageAt(0) {
		t.Fatal("page of a later mapping not tracked")
	}
	m.Run(50 * sim.Millisecond)
}
