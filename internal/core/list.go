// Package core implements HeMem itself (§3): the user-level tiered memory
// manager with PEBS-based asynchronous access sampling, hot/cold FIFO
// queues per memory type, clock-based cooling, write-heavy prioritization,
// and an asynchronous migration policy that runs every 10 ms.
package core

import (
	"math"

	"github.com/tieredmem/hemem/internal/vm"
)

// PageInfo is HeMem's per-page tracking state. HeMem tracks at huge-page
// granularity: counters accumulate PEBS samples, and the cooling clock
// halves them lazily (§3.1).
//
// PageInfos live by value in the engine's pageTable, 24 bytes each, so
// queue links are PageIDs into that table rather than pointers. A
// *PageInfo stays valid until its page is released (HeMem.Release zeroes
// the slot and may free its window), so nothing may hold one past that.
type PageInfo struct {
	Page *vm.Page

	// prev and next link the page into its queue; noPage ends the queue.
	prev, next vm.PageID

	// CoolClock is the global cooling epoch this page was last cooled
	// at; a mismatch with the engine clock cools the page lazily before
	// the next sample is applied. Epochs count modulo 2^32 (see
	// heMemPolicy.cool).
	CoolClock uint32

	// Reads and Writes count samples since the last cooling, saturating
	// at 255 (addCount). With cooling on they never get there. Let N be
	// the largest observation any tracker delivers, at most one hot
	// threshold. Between observations a count is at most
	// max(CoolThreshold-1, N): an observation either leaves the page's
	// total below CoolThreshold or halves both counts. So adding n ≤ N
	// reaches at most max(CoolThreshold-1, N)+N, which the thresholds'
	// cap (maxThreshold, checked by Config.Validate) keeps at 254. Only
	// the NoCooling ablation, which no experiment runs, saturates them.
	Reads, Writes uint8

	// list is the queue holding the page, an index into the page
	// table's list table, or noList while the page is in flight.
	list listID

	// WriteHeavy marks pages whose store samples crossed the write
	// threshold; they get migration priority (§3.3).
	WriteHeavy bool
}

// addCount adds n (≥ 0) samples to a counter, saturating at 255 (see
// PageInfo.Reads).
func addCount(c uint8, n int) uint8 {
	if n < math.MaxUint8-int(c) {
		return c + uint8(n)
	}
	return math.MaxUint8
}

// listID indexes a pageTable's list table.
type listID uint8

const (
	// noList is the list ID of a page on no queue (in flight).
	noList listID = 0
	// noPage ends a queue's links.
	noPage vm.PageID = -1
)

// piWindow is one window of the page table: the PageInfos of 2048
// consecutive PageIDs, 48 KiB. That is exactly six 8 KiB runtime pages,
// and Go serves any object over 32 KiB as a large object with no
// allocation header, so a window costs exactly its size. (A 1024-record
// window, 24 KiB, holds pointers: Go would add an 8-byte header and serve
// it from the 27,264-byte size class, 11% slack.)
type piWindow [piWindowSize]PageInfo

const (
	piWindowShift = 11
	piWindowSize  = 1 << piWindowShift
	piWindowMask  = piWindowSize - 1
)

// pageTable stores every tracked page's PageInfo by PageID, plus the
// table of queues those PageInfos link into. Windows are materialized on
// the first tracked page of their 2048-ID range and freed when the last
// one is released, so the table costs O(touched ranges), matching vm's
// lazy page slabs: a terabyte mapping costs nothing until tracked, and a
// single tracked page costs a whole window.
type pageTable struct {
	windows []*piWindow
	// live counts the tracked slots of each window.
	live []uint16
	// lists is the list table; lists[noList] is unused.
	lists []List
}

// get returns the tracking state for page id, or nil if untracked.
func (pt *pageTable) get(id vm.PageID) *PageInfo {
	wi := int(id) >> piWindowShift
	if wi >= len(pt.windows) || pt.windows[wi] == nil {
		return nil
	}
	if pi := &pt.windows[wi][int(id)&piWindowMask]; pi.Page != nil {
		return pi
	}
	return nil
}

// slot returns the record of page id in windows, whose window must exist
// (id is a queue link, so the page is tracked).
func slot(windows []*piWindow, id vm.PageID) *PageInfo {
	return &windows[int(id)>>piWindowShift][int(id)&piWindowMask]
}

// track starts tracking p, which must be untracked, with cooling epoch
// clock, materializing its window as needed, and returns its fresh
// PageInfo (on no queue).
func (pt *pageTable) track(p *vm.Page, clock uint32) *PageInfo {
	wi := int(p.ID) >> piWindowShift
	for wi >= len(pt.windows) {
		pt.windows = append(pt.windows, nil)
		pt.live = append(pt.live, 0)
	}
	w := pt.windows[wi]
	if w == nil {
		w = new(piWindow)
		pt.windows[wi] = w
	}
	pt.live[wi]++
	pi := &w[int(p.ID)&piWindowMask]
	*pi = PageInfo{Page: p, CoolClock: clock, prev: noPage, next: noPage}
	return pi
}

// release stops tracking page id: it leaves its queue, its slot is
// zeroed, and its window is freed once no slot in it is tracked.
func (pt *pageTable) release(id vm.PageID) {
	pi := pt.get(id)
	if pi == nil {
		return
	}
	pt.unlink(pi)
	*pi = PageInfo{}
	wi := int(id) >> piWindowShift
	if pt.live[wi]--; pt.live[wi] == 0 {
		pt.windows[wi] = nil
	}
}

// makeLists allocates a list table of n queues and returns them; each
// knows its table and ID, and the caller names them.
func (pt *pageTable) makeLists(n int) []List {
	if n > math.MaxUint8 {
		panic("core: too many queues for the list table")
	}
	pt.lists = make([]List, n+1)
	for i := 1; i <= n; i++ {
		pt.lists[i] = List{pt: pt, id: listID(i)}
	}
	return pt.lists[1:]
}

// listOf returns the queue holding pi, or nil (in flight).
func (pt *pageTable) listOf(pi *PageInfo) *List {
	if pi.list == noList {
		return nil
	}
	return &pt.lists[pi.list]
}

// unlink takes pi off its queue, if it is on one.
func (pt *pageTable) unlink(pi *PageInfo) {
	if pi.list != noList {
		pt.lists[pi.list].Remove(pi)
	}
}

// List is an intrusive doubly-linked FIFO queue of PageInfo, the structure
// behind HeMem's hot, cold, and free queues. PushBack enqueues normally;
// PushFront implements write-heavy priority ("HeMem moves it to the front
// of the hot list"). Links are PageIDs resolved through the list's page
// table; a page is on at most one list of its table.
type List struct {
	Name       string
	pt         *pageTable
	id         listID
	head, tail vm.PageID // valid while n > 0
	n          int
	// hot marks the per-tier hot queues so membership tests
	// (HeMem.inHotList) stay O(1) with any number of tiers.
	hot bool
}

// Len returns the number of queued pages.
func (l *List) Len() int { return l.n }

// Front returns the head without removing it, or nil.
func (l *List) Front() *PageInfo {
	if l.n == 0 {
		return nil
	}
	return slot(l.pt.windows, l.head)
}

// Back returns the tail without removing it, or nil.
func (l *List) Back() *PageInfo {
	if l.n == 0 {
		return nil
	}
	return slot(l.pt.windows, l.tail)
}

// Next returns the entry behind pi (towards the tail), or nil.
func (l *List) Next(pi *PageInfo) *PageInfo {
	if pi.next == noPage {
		return nil
	}
	return slot(l.pt.windows, pi.next)
}

// Prev returns the entry ahead of pi (towards the head), or nil.
func (l *List) Prev(pi *PageInfo) *PageInfo {
	if pi.prev == noPage {
		return nil
	}
	return slot(l.pt.windows, pi.prev)
}

// PushBack appends pi, removing it from any list it is currently on.
func (l *List) PushBack(pi *PageInfo) {
	l.pt.unlink(pi)
	id := pi.Page.ID
	pi.list = l.id
	pi.next = noPage
	if l.n > 0 {
		slot(l.pt.windows, l.tail).next = id
		pi.prev = l.tail
	} else {
		l.head = id
		pi.prev = noPage
	}
	l.tail = id
	l.n++
}

// PushFront prepends pi (priority insertion), removing it from any list it
// is currently on.
func (l *List) PushFront(pi *PageInfo) {
	l.pt.unlink(pi)
	id := pi.Page.ID
	pi.list = l.id
	pi.prev = noPage
	if l.n > 0 {
		slot(l.pt.windows, l.head).prev = id
		pi.next = l.head
	} else {
		l.tail = id
		pi.next = noPage
	}
	l.head = id
	l.n++
}

// PopFront removes and returns the head, or nil if empty.
func (l *List) PopFront() *PageInfo {
	pi := l.Front()
	if pi == nil {
		return nil
	}
	l.Remove(pi)
	return pi
}

// Remove unlinks pi from this list. pi must be on l.
func (l *List) Remove(pi *PageInfo) {
	if pi.list != l.id {
		panic("core: removing page from wrong list")
	}
	windows := l.pt.windows
	if pi.prev != noPage {
		slot(windows, pi.prev).next = pi.next
	} else {
		l.head = pi.next
	}
	if pi.next != noPage {
		slot(windows, pi.next).prev = pi.prev
	} else {
		l.tail = pi.prev
	}
	pi.prev, pi.next, pi.list = noPage, noPage, noList
	l.n--
}
