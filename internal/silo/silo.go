// Package silo implements a Silo-style in-memory transactional database
// (Tu et al., SOSP '13), the substrate of the paper's TPC-C experiments
// (§5.2.1): named tables with hash primary indexes and optimistic
// concurrency control — transactions buffer reads and writes, then commit
// with the Silo protocol (lock write set in deterministic order, validate
// the read set's TIDs, install new versions under a fresh TID).
//
// The engine is a real concurrent database used by internal/tpcc and the
// examples; the simulator models its memory traffic separately.
package silo

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrConflict aborts a transaction whose read set changed before commit.
var ErrConflict = errors.New("silo: conflict, transaction aborted")

// ErrNotFound is returned for reads of missing keys.
var ErrNotFound = errors.New("silo: key not found")

// rowSeq hands out creation-order identities used for deterministic,
// deadlock-free write-set lock ordering.
var rowSeq atomic.Uint64

// row is a versioned record.
type row struct {
	seq  uint64
	mu   sync.Mutex
	tid  uint64
	data []byte
	dead bool
}

// Table is a hash-indexed table of rows keyed by uint64.
type Table struct {
	name   string
	shards [64]struct {
		mu   sync.RWMutex
		rows map[uint64]*row
	}
}

func newTable(name string) *Table {
	t := &Table{name: name}
	for i := range t.shards {
		t.shards[i].rows = make(map[uint64]*row)
	}
	return t
}

func (t *Table) shard(key uint64) *struct {
	mu   sync.RWMutex
	rows map[uint64]*row
} {
	return &t.shards[(key*0x9e3779b97f4a7c15)>>58]
}

// get returns the row for key, or nil.
func (t *Table) get(key uint64) *row {
	s := t.shard(key)
	s.mu.RLock()
	r := s.rows[key]
	s.mu.RUnlock()
	return r
}

// ensure returns the row for key, creating an empty (absent) one so that
// inserts can lock it.
func (t *Table) ensure(key uint64) *row {
	s := t.shard(key)
	s.mu.Lock()
	r := s.rows[key]
	if r == nil {
		r = &row{seq: rowSeq.Add(1), dead: true}
		s.rows[key] = r
	}
	s.mu.Unlock()
	return r
}

// DB is the database: a set of tables and a TID generator.
type DB struct {
	mu     sync.Mutex
	tables map[string]*Table
	tid    atomic.Uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Table returns the named table, creating it on first use.
func (db *DB) Table(name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[name]
	if t == nil {
		t = newTable(name)
		db.tables[name] = t
	}
	return t
}

// Tx is a transaction. A Tx is not safe for concurrent use; each worker
// runs its own.
type Tx struct {
	db     *DB
	reads  map[*row]uint64 // row → tid observed
	writes map[*row][]byte // row → new value (nil = delete)
	order  []*row          // write locking order
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{
		db:     db,
		reads:  make(map[*row]uint64),
		writes: make(map[*row][]byte),
	}
}

// Read returns the value of key in table, observing its version. Values
// previously written in this transaction are returned from the write set.
func (tx *Tx) Read(t *Table, key uint64) ([]byte, error) {
	r := t.get(key)
	if r == nil {
		return nil, ErrNotFound
	}
	if v, ok := tx.writes[r]; ok {
		if v == nil {
			return nil, ErrNotFound
		}
		return v, nil
	}
	r.mu.Lock()
	tid, data, dead := r.tid, r.data, r.dead
	r.mu.Unlock()
	tx.reads[r] = tid
	if dead {
		return nil, ErrNotFound
	}
	return data, nil
}

// Write buffers a write of key in table. The value is captured by
// reference; callers must not mutate it afterwards.
func (tx *Tx) Write(t *Table, key uint64, value []byte) {
	r := t.ensure(key)
	if _, seen := tx.writes[r]; !seen {
		tx.order = append(tx.order, r)
	}
	tx.writes[r] = value
}

// Delete buffers a deletion of key.
func (tx *Tx) Delete(t *Table, key uint64) {
	tx.Write(t, key, nil)
}

// Commit runs Silo's commit protocol: lock the write set in a global
// deterministic order, validate that no read row changed, then install the
// writes under a fresh TID.
func (tx *Tx) Commit() error {
	// Phase 1: lock writes in address order (deadlock freedom).
	sort.Slice(tx.order, func(i, j int) bool {
		return rowLess(tx.order[i], tx.order[j])
	})
	for _, r := range tx.order {
		r.mu.Lock()
	}
	unlock := func() {
		for _, r := range tx.order {
			r.mu.Unlock()
		}
	}
	// Phase 2: validate the read set. A read row locked by another
	// committer fails validation instead of being waited on: that
	// committer may itself be waiting on a row in our write set.
	for r, tid := range tx.reads {
		if _, own := tx.writes[r]; own {
			continue // already locked by us; check version directly
		}
		if !r.mu.TryLock() {
			unlock()
			return ErrConflict
		}
		cur := r.tid
		r.mu.Unlock()
		if cur != tid {
			unlock()
			return ErrConflict
		}
	}
	for r, tid := range tx.reads {
		if _, own := tx.writes[r]; own && r.tid != tid {
			unlock()
			return ErrConflict
		}
	}
	// Phase 3: install.
	tid := tx.db.tid.Add(1)
	for r, v := range tx.writes {
		r.tid = tid
		if v == nil {
			r.dead = true
			r.data = nil
		} else {
			r.dead = false
			r.data = v
		}
	}
	unlock()
	return nil
}

// rowLess orders rows for deadlock-free locking.
func rowLess(a, b *row) bool { return a.seq < b.seq }

// validateReads re-checks the observed version of every row in the read
// set and reports whether the snapshot is still current. Commit performs
// the same check under the write locks; this standalone form lets Run
// distinguish a transaction body that failed on a torn snapshot (retry)
// from one that failed on current data (a real error).
func (tx *Tx) validateReads() bool {
	for r, tid := range tx.reads {
		r.mu.Lock()
		cur := r.tid
		r.mu.Unlock()
		if cur != tid {
			return false
		}
	}
	return true
}

// Run executes fn in a transaction, retrying on conflicts — both
// conflicts detected at commit and conflicts surfacing inside fn. A
// transaction body reads one row at a time, so between two reads a
// concurrent commit can tear the snapshot (e.g. it consumes the order
// our district read pointed at and deletes its row); fn then fails with
// an error like ErrNotFound that is really a serialization conflict,
// not a data error. Errors from fn are therefore returned only when the
// read set still validates — on a stale snapshot the transaction
// retries exactly as a commit-time conflict would, which is what Silo's
// protocol guarantees for transactions that reach validation.
func (db *DB) Run(fn func(tx *Tx) error) error {
	for {
		tx := db.Begin()
		if err := fn(tx); err != nil {
			if errors.Is(err, ErrConflict) || !tx.validateReads() {
				continue
			}
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
	}
}
