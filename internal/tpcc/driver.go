package tpcc

import (
	"fmt"
	"math"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/sim"
	"github.com/tieredmem/hemem/internal/vm"
)

// DriverConfig parameterizes the simulated Silo/TPC-C workload of §5.2.1:
// 16 worker threads over a warehouse-scaled database whose access pattern
// is "random with little read and write reuse".
type DriverConfig struct {
	// Warehouses scales the database; 864 warehouses is the largest
	// count whose data fits the 192 GB DRAM.
	Warehouses int
	// Seed scatters the hot rows.
	Seed uint64
}

// The workload's fixed shape.
const (
	// threads is the worker count (paper: 16).
	threads = 16
	// warehouseBytes is the in-memory footprint per warehouse, including
	// order growth headroom (192 GB / 864 ≈ 222 MB).
	warehouseBytes = 222 * sim.MB
	// computePerTx is the CPU time per transaction outside memory stalls
	// (validation, logging, key packing; Silo-class engines run TPC-C in
	// a few µs of pure compute).
	computePerTx = 4 * sim.Microsecond
	// rowsRead, rowsWritten and rowBytes shape per-transaction traffic:
	// NewOrder reads ~23 rows and writes ~13, Payment 3 and 4, so the
	// weighted mix is ≈ 18 reads and 9 writes of 192-byte rows.
	rowsRead    = 18
	rowsWritten = 9
	rowBytes    = 192
	// indexDepth is the number of dependent pointer hops per row access.
	indexDepth = 3
)

// Validate reports the first invalid field of c: a database of no
// warehouses, of more bytes than an int64 counts, of more than
// math.MaxInt32 pages of pageSize bytes (the machine's page size;
// PageIDs are int32) or of fewer than three.
func (c DriverConfig) Validate(pageSize int64) error {
	if c.Warehouses <= 0 {
		return fmt.Errorf("tpcc: Warehouses %d must be positive", c.Warehouses)
	}
	if int64(c.Warehouses) > math.MaxInt64/warehouseBytes {
		return fmt.Errorf("tpcc: %d warehouses of %d bytes overflow a byte count", c.Warehouses, warehouseBytes)
	}
	size := int64(c.Warehouses) * warehouseBytes
	if err := vm.CheckMapping(pageSize, size); err != nil {
		return fmt.Errorf("tpcc: %w", err)
	}
	if n := vm.PagesFor(size, pageSize); n < 3 {
		return fmt.Errorf("tpcc: a database of %d pages of %d bytes; the hot, insert and bulk row sets need one page each", n, pageSize)
	}
	return nil
}

// Driver is the simulated TPC-C workload instance.
type Driver struct {
	cfg DriverConfig

	dbRegion  *vm.Region
	hotSet    *vm.PageSet // warehouse/district rows: touched every tx
	bulkSet   *vm.PageSet
	insertSet *vm.PageSet // order/orderline append area

	comps   []machine.Component
	txs     float64
	lastNow int64
	obsTxs  float64
	obsTime int64
}

// NewDriver maps the database on m and registers the workload. It panics
// with Validate's message, before mapping anything, on an invalid cfg.
func NewDriver(m *machine.Machine, cfg DriverConfig) *Driver {
	if err := cfg.Validate(m.Cfg.PageSize); err != nil {
		panic(err.Error())
	}
	d := &Driver{cfg: cfg}
	total := int64(cfg.Warehouses) * warehouseBytes
	d.dbRegion = m.AS.Map("tpcc-db", total)

	pages := d.dbRegion.ShuffledPages(sim.NewRand(cfg.Seed + 0x7bcc))
	// Warehouse and district rows are ~0.5% of bytes but are touched by
	// every transaction — the small always-hot core.
	nHot := max(len(pages)/200, 1)
	// Orders and order lines are appended, not revisited: give the
	// insert stream its own tail slice (~10%).
	nInsert := max(len(pages)/10, 1)
	d.hotSet = m.AS.NewPageSet("tpcc-hot", pages[:nHot])
	d.insertSet = m.AS.NewPageSet("tpcc-insert", pages[nHot:nHot+nInsert])
	d.bulkSet = m.AS.NewPageSet("tpcc-bulk", pages[nHot+nInsert:])

	d.comps = []machine.Component{
		// Warehouse/district header reads+updates, every transaction.
		{Set: d.hotSet, Share: 2, ReadBytes: rowBytes, WriteBytes: rowBytes,
			Pattern: mem.Random, Deps: indexDepth},
		// Bulk row reads (customers, stock, items): random, little reuse.
		{Set: d.bulkSet, Share: rowsRead, ReadBytes: rowBytes,
			Pattern: mem.Random, Deps: indexDepth},
		// Bulk row updates (stock, customer balances).
		{Set: d.bulkSet, Share: rowsWritten, WriteBytes: rowBytes,
			Pattern: mem.Random},
		// Order/order-line inserts: appends into fresh rows.
		{Set: d.insertSet, Share: 1, WriteBytes: 600, Pattern: mem.Sequential},
	}
	m.AddWorkload(d)
	return d
}

// Name implements machine.Workload.
func (d *Driver) Name() string { return "tpcc" }

// Threads implements machine.Workload.
func (d *Driver) Threads() int { return threads }

// Components implements machine.Workload.
func (d *Driver) Components() []machine.Component { return d.comps }

// ComputePerOp implements machine.Computes.
func (d *Driver) ComputePerOp() float64 { return float64(computePerTx) }

// OnOps implements machine.Workload.
func (d *Driver) OnOps(now int64, ops float64, opTime float64) {
	d.txs += ops
	d.lastNow = now
}

// Done implements machine.Workload (open-ended server workload).
func (d *Driver) Done() bool { return false }

// TPS returns transactions per second since the last ResetScore.
func (d *Driver) TPS() float64 {
	el := float64(d.lastNow - d.obsTime)
	if el <= 0 {
		return 0
	}
	return (d.txs - d.obsTxs) / el * 1e9
}

// ResetScore restarts the measurement window.
func (d *Driver) ResetScore() {
	d.obsTxs = d.txs
	d.obsTime = d.lastNow
}

// Region returns the database region.
func (d *Driver) Region() *vm.Region { return d.dbRegion }

// HotPages returns the warehouse/district page set.
func (d *Driver) HotPages() *vm.PageSet { return d.hotSet }

func (d *Driver) String() string {
	return fmt.Sprintf("tpcc{%d wh, %d thr}", d.cfg.Warehouses, threads)
}
