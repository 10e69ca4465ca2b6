// Package pebs models processor event-based sampling as HeMem uses it
// (§3.1): the CPU writes a record into a preallocated buffer once every
// sample-period memory accesses, distinguishing loads served from DRAM
// (MEM_LOAD_L3_MISS_RETIRED.LOCAL_DRAM), loads served from NVM
// (MEM_LOAD_RETIRED.LOCAL_PMM), and all stores
// (MEM_INST_RETIRED.ALL_STORES), each tagged with the virtual address (here:
// the page) of the sampled instruction.
//
// The model preserves the two failure modes the paper's sensitivity study
// (Figure 10) exposes: at low sample periods the PEBS thread cannot keep up
// and records are dropped from the full buffer; at high periods samples
// arrive too rarely to track the hot set.
package pebs

import (
	"fmt"
	"math"

	"github.com/tieredmem/hemem/internal/vm"
)

// Kind classifies a sample by the performance counter that produced it.
type Kind uint8

const (
	LoadDRAM Kind = iota
	LoadNVM
	Store
)

func (k Kind) String() string {
	switch k {
	case LoadDRAM:
		return "load-dram"
	case LoadNVM:
		return "load-nvm"
	default:
		return "store"
	}
}

// Record is one PEBS sample.
type Record struct {
	Page vm.PageID
	Kind Kind
}

// Buffer is the fixed-capacity sample buffer shared between the (simulated)
// CPU and the PEBS reader thread. When full, new samples are dropped and
// counted, exactly like a real PEBS buffer overrun.
type Buffer struct {
	buf     []Record
	head    int
	n       int
	pushed  uint64
	dropped uint64
}

// NewBuffer allocates a buffer holding capacity records. Capacity must be
// positive.
func NewBuffer(capacity int) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("pebs: buffer capacity must be positive, got %d", capacity)
	}
	return &Buffer{buf: make([]Record, capacity)}, nil
}

// Push appends a record, returning false (and counting a drop) if full.
func (b *Buffer) Push(r Record) bool {
	if b.n == len(b.buf) {
		b.dropped++
		return false
	}
	b.buf[(b.head+b.n)%len(b.buf)] = r
	b.n++
	b.pushed++
	return true
}

// PushBatch appends recs, dropping (and counting) the suffix that does
// not fit. It is the bulk form of Push: the ring is written with at most
// two copies instead of a modulo and a call per record. Accepted count,
// ring contents, and the pushed/dropped counters match a sequential
// Push of the same records exactly. Returns how many were accepted.
func (b *Buffer) PushBatch(recs []Record) int {
	n := len(recs)
	if free := len(b.buf) - b.n; n > free {
		b.dropped += uint64(n - free)
		n = free
	}
	if n == 0 {
		return 0
	}
	tail := (b.head + b.n) % len(b.buf)
	first := len(b.buf) - tail
	if first > n {
		first = n
	}
	copy(b.buf[tail:tail+first], recs[:first])
	copy(b.buf[:n-first], recs[first:n])
	b.n += n
	b.pushed += uint64(n)
	return n
}

// Pop removes the oldest record.
func (b *Buffer) Pop() (Record, bool) {
	if b.n == 0 {
		return Record{}, false
	}
	r := b.buf[b.head]
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	return r, true
}

// PopBatch removes up to len(dst) of the oldest records into dst and
// returns how many were copied. It is the bulk form of Pop: the ring is
// drained with at most two copies instead of a call per record, which is
// what keeps the reader's hot path allocation- and call-free.
func (b *Buffer) PopBatch(dst []Record) int {
	n := b.n
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return 0
	}
	first := len(b.buf) - b.head
	if first > n {
		first = n
	}
	copy(dst, b.buf[b.head:b.head+first])
	copy(dst[first:], b.buf[:n-first])
	b.head = (b.head + n) % len(b.buf)
	b.n -= n
	return n
}

// Len returns the number of buffered records.
func (b *Buffer) Len() int { return b.n }

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return len(b.buf) }

// Pushed returns the total number of records successfully written.
func (b *Buffer) Pushed() uint64 { return b.pushed }

// Dropped returns the number of records lost to buffer overruns.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// DropFraction returns dropped/(dropped+pushed), the metric of Figure 10.
func (b *Buffer) DropFraction() float64 {
	total := b.pushed + b.dropped
	if total == 0 {
		return 0
	}
	return float64(b.dropped) / float64(total)
}

// Class distinguishes the two counter groups HeMem programs: loads (which
// PEBS further attributes to DRAM or NVM by the serving memory) and stores.
type Class uint8

const (
	ClassLoad Class = iota
	ClassStore
)

// Sampler turns an analytic stream of memory accesses into discrete PEBS
// records at the configured period. The machine feeds it fractional access
// counts each quantum; a carry accumulator keeps long-run sample counts
// exact regardless of quantum size.
type Sampler struct {
	// Period is the number of memory accesses per sample (the paper's
	// default is 5,000).
	Period float64

	buf   *Buffer
	carry [2]float64
}

// NewSampler creates a sampler with the given period writing into buf.
// Period must be positive and buf non-nil.
func NewSampler(period float64, buf *Buffer) (*Sampler, error) {
	if !(period > 0) || math.IsInf(period, 1) {
		return nil, fmt.Errorf("pebs: sample period must be positive and finite, got %v", period)
	}
	if buf == nil {
		return nil, fmt.Errorf("pebs: sampler needs a buffer")
	}
	return &Sampler{Period: period, buf: buf}, nil
}

// Buffer returns the buffer the sampler writes to.
func (s *Sampler) Buffer() *Buffer { return s.buf }

// Take records that n accesses of class c occurred and returns how many
// samples they produce at the configured period. The caller draws that
// many records (each the page a sampled access touched, with the counter
// that fired) and pushes them into Buffer.
//
// The carry arithmetic is bit-compatible with a one-at-a-time decrement
// loop: for carry < 2^52, subtracting the integer sample count in one
// step yields the same float64 as repeated unit decrements, so long-run
// sample counts stay exact regardless of how traffic is split.
func (s *Sampler) Take(n float64, c Class) int {
	s.carry[c] += n / s.Period
	k := int(s.carry[c])
	if k > 0 {
		s.carry[c] -= float64(k)
	}
	return k
}

// Reader models HeMem's dedicated PEBS thread: it drains the buffer at a
// bounded processing rate, in batches the classifier then consumes. If
// the sampler outpaces the reader, the buffer fills and samples drop.
type Reader struct {
	// RatePerSec is the reader's processing capacity in records per
	// second of simulated time (classification involves a page lookup and
	// counter updates per record).
	RatePerSec float64

	carry float64
}

// DefaultReaderRate is the calibrated per-thread record-processing
// capacity. With GUPS at ~0.1 Gops/s, sample periods below ~1k outpace
// this rate and drop a large fraction of samples (the paper observes up to
// 30% dropped), while the default 5k period drops essentially none,
// matching Figure 10.
const DefaultReaderRate = 200_000

// NewReader returns a reader with the given capacity (records/second).
// The rate must be positive.
func NewReader(ratePerSec float64) (*Reader, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("pebs: reader rate must be positive, got %v", ratePerSec)
	}
	return &Reader{RatePerSec: ratePerSec}, nil
}

// DrainBatch pops up to the rate budget for dt (bounded by len(dst))
// into dst and returns how many records were copied. Call it with dt for
// the first batch of a quantum and dt = 0 for follow-up batches when dst
// filled completely, then Settle(dt) once the quantum's draining is done.
// The budget arithmetic is bit-compatible with popping one record per
// unit of budget: subtracting the popped count in one step yields the
// same float64 as repeated unit decrements.
func (r *Reader) DrainBatch(buf *Buffer, dt int64, dst []Record) int {
	if dt > 0 {
		r.carry += r.RatePerSec * float64(dt) / 1e9
	}
	k := int(r.carry)
	if k > len(dst) {
		k = len(dst)
	}
	if k <= 0 {
		return 0
	}
	n := buf.PopBatch(dst[:k])
	if n > 0 {
		r.carry -= float64(n)
	}
	return n
}

// Settle caps banked budget at one quantum's allowance: an idle reader
// cannot "save up" capacity it didn't use.
func (r *Reader) Settle(dt int64) {
	if max := r.RatePerSec * float64(dt) / 1e9; r.carry > max {
		r.carry = max
	}
}
