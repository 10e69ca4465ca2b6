package sim

import "container/heap"

// Clock is the simulated nanosecond clock. Components read it; only the
// machine's step loop advances it.
type Clock struct {
	now int64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by dt nanoseconds. dt must be
// non-negative.
func (c *Clock) Advance(dt int64) {
	if dt < 0 {
		panic("sim: clock cannot move backwards")
	}
	c.now += dt
}

// Event is a scheduled callback. Events with equal deadlines fire in the
// order they were scheduled (FIFO), which keeps runs deterministic.
type Event struct {
	At  int64
	Fn  func(now int64)
	seq uint64
	idx int
}

// EventQueue is a deterministic priority queue of timed events. It backs
// periodic work such as HeMem's 10 ms policy tick and Nimble's kernel
// thread cycle.
type EventQueue struct {
	h    eventHeap
	next uint64
	// free recycles fired events so a periodic tick that reschedules
	// itself every 10 ms runs allocation-free.
	free []*Event
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Schedule enqueues fn to run at time at. The returned event is owned by
// the queue and only valid until it fires; it is recycled afterwards.
func (q *EventQueue) Schedule(at int64, fn func(now int64)) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = Event{}
	} else {
		e = &Event{}
	}
	e.At, e.Fn, e.seq = at, fn, q.next
	q.next++
	heap.Push(&q.h, e)
	return e
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return q.h.Len() }

// RunDue pops and runs every event with deadline <= now, in deadline order.
// Events scheduled by callbacks are honored if they are also due.
func (q *EventQueue) RunDue(now int64) {
	for q.h.Len() > 0 && q.h[0].At <= now {
		e := heap.Pop(&q.h).(*Event)
		at, fn := e.At, e.Fn
		e.Fn = nil
		q.free = append(q.free, e)
		fn(at)
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
