package gap

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/machine"
	"github.com/tieredmem/hemem/internal/mem"
	"github.com/tieredmem/hemem/internal/vm"
)

// DriverConfig parameterizes the simulated BC run of §5.2.3.
type DriverConfig struct {
	// Scale is log2 of the vertex count (the paper runs 2^28, which fits
	// the 192 GB DRAM, and 2^29, which exceeds it).
	Scale int
	// Iterations is the number of BC source iterations (paper: 15).
	Iterations int
	// EdgeVisitScale shortens iterations for tests: the fraction of the
	// full 2·E edge visits each iteration performs (default 1).
	EdgeVisitScale float64
	// Seed drives generation and source choice.
	Seed uint64
}

// edgeFactor is directed edges per vertex and threads the worker count
// (§5.2.3: edge factor 16 on 16 threads).
const (
	edgeFactor = 16
	threads    = 16
)

// BytesPerVertex is the modelled in-memory footprint per vertex: both
// CSR directions (2×16 neighbor entries × 8 B), offsets, and the BC arrays
// (scores, sigma, depth, delta, frontier and successor structures) plus
// builder slack. 400 B/vertex puts 2^28 at ~100 GB (fits DRAM) and 2^29 at
// ~200 GB (exceeds it), matching the paper's framing.
const BytesPerVertex = 400

// MaxScale bounds DriverConfig.Scale: 2^40 vertices already model
// 400 TiB, far past any simulated machine.
const MaxScale = 40

// vertexZones is how many degree-ordered zones the vertex arrays are split
// into for traffic modelling.
const vertexZones = 3

// Driver is the simulated BC workload.
type Driver struct {
	cfg DriverConfig

	neighborsRegion *vm.Region
	vertexRegion    *vm.Region
	vertexSets      [vertexZones]*vm.PageSet
	zoneTraffic     [vertexZones]float64

	comps     []machine.Component
	opsPerIt  float64
	totalOps  float64
	iterDone  []int64   // completion time of each iteration
	iterWear  []float64 // cumulative NVM write bytes at each completion
	m         *machine.Machine
	startWear float64
}

// Validate reports the first invalid field of c. Zero fields mean their
// defaults (15 iterations, full edge visits), so only negative values
// fail, plus a Scale past MaxScale, an EdgeVisitScale outside [0, 1] or
// NaN, and a graph of more than math.MaxInt32 pages of pageSize bytes
// (the machine's page size; PageIDs are int32).
func (c DriverConfig) Validate(pageSize int64) error {
	switch {
	case c.Scale < 0 || c.Scale > MaxScale:
		return fmt.Errorf("gap: Scale %d outside [0, %d]", c.Scale, MaxScale)
	case c.Iterations < 0:
		return fmt.Errorf("gap: negative Iterations %d", c.Iterations)
	case !(c.EdgeVisitScale >= 0 && c.EdgeVisitScale <= 1):
		return fmt.Errorf("gap: EdgeVisitScale %v outside [0, 1]", c.EdgeVisitScale)
	}
	if err := vm.CheckMapping(pageSize, graphBytes(c.Scale)...); err != nil {
		return fmt.Errorf("gap: %w", err)
	}
	return nil
}

// graphBytes returns the sizes of the neighbour and vertex arrays of a
// graph of 2^scale vertices.
func graphBytes(scale int) []int64 {
	v := int64(1) << scale
	// Neighbor arrays: 2 directions × edgeFactor entries × 8 B.
	neighbors := 2 * edgeFactor * v * 8
	return []int64{neighbors, v*BytesPerVertex - neighbors}
}

// NewDriver maps the graph's memory on m and registers the workload. A
// real Kronecker graph at calibrationScale measures the degree skew used
// to split the vertex arrays into hot/warm/cold zones. It panics with
// Validate's message, before mapping anything, on an invalid cfg.
func NewDriver(m *machine.Machine, cfg DriverConfig) *Driver {
	if err := cfg.Validate(m.Cfg.PageSize); err != nil {
		panic(err.Error())
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 15
	}
	if cfg.EdgeVisitScale == 0 {
		cfg.EdgeVisitScale = 1
	}
	d := &Driver{cfg: cfg, m: m}

	sizes := graphBytes(cfg.Scale)
	d.neighborsRegion = m.AS.Map("gap-neighbors", sizes[0])
	d.vertexRegion = m.AS.Map("gap-vertex", sizes[1])

	// Measure page-level degree concentration on a real (small) graph:
	// chunk the vertex range as the full-scale pages chunk it. The graph
	// and summary are pure functions of the seed, so they come from the
	// process-wide calibration cache instead of being rebuilt per
	// driver/sweep cell.
	pages := d.vertexRegion.AllPages()
	traffic := calibrationTraffic(cfg.Seed, len(pages))

	// Split pages into three zones: the hottest pages covering ~40% of
	// vertex traffic, the next ~35%, and the tail. Pages are taken in id
	// order (hubs cluster at low ids).
	type zoneDef struct{ target float64 }
	defs := [vertexZones]zoneDef{{0.40}, {0.35}, {1.0}}
	idx := 0
	for z := 0; z < vertexZones; z++ {
		start := idx
		var zoneTr float64
		for idx < len(pages) {
			zoneTr += traffic[idx]
			idx++
			if z < vertexZones-1 && zoneTr >= defs[z].target && len(pages)-idx > vertexZones-z {
				break
			}
		}
		d.vertexSets[z] = m.AS.NewPageSet(fmt.Sprintf("gap-vertex-z%d", z), pages[start:idx])
		d.zoneTraffic[z] = zoneTr
	}

	// One op = one edge visit: stream the neighbor entry, then touch the
	// endpoint's vertex data — a random read (sigma/depth) and a random
	// write (sigma or delta accumulation). BC's vertex updates make the
	// hub zones write-intensive ("the BC data structures are write
	// intensive", §5.2.3).
	neighborsSet := d.neighborsRegion.AsSet()
	d.comps = []machine.Component{
		{Set: neighborsSet, Share: 1, ReadBytes: 8, Pattern: mem.Sequential},
	}
	for z := 0; z < vertexZones; z++ {
		d.comps = append(d.comps,
			machine.Component{Set: d.vertexSets[z], Share: d.zoneTraffic[z],
				ReadBytes: 16, Pattern: mem.Random},
			machine.Component{Set: d.vertexSets[z], Share: d.zoneTraffic[z],
				WriteBytes: 12, Pattern: mem.Random},
		)
	}

	d.opsPerIt = 2 * float64(edgeFactor) * float64(int64(1)<<cfg.Scale) * cfg.EdgeVisitScale
	m.AddWorkload(d)
	d.startWear = m.NVM.Wear().WriteBytes
	return d
}

// Name implements machine.Workload.
func (d *Driver) Name() string { return "gap-bc" }

// Threads implements machine.Workload.
func (d *Driver) Threads() int { return threads }

// Components implements machine.Workload.
func (d *Driver) Components() []machine.Component { return d.comps }

// ComputePerOp implements machine.Computes: a few ns of instruction work
// per edge (comparisons, queueing).
func (d *Driver) ComputePerOp() float64 { return 4 }

// OnOps implements machine.Workload: track per-iteration boundaries.
func (d *Driver) OnOps(now int64, ops float64, opTime float64) {
	before := int(d.totalOps / d.opsPerIt)
	d.totalOps += ops
	after := int(d.totalOps / d.opsPerIt)
	for it := before; it < after && len(d.iterDone) < d.cfg.Iterations; it++ {
		d.iterDone = append(d.iterDone, now)
		d.iterWear = append(d.iterWear, d.m.NVM.Wear().WriteBytes)
	}
}

// Done implements machine.Workload.
func (d *Driver) Done() bool { return len(d.iterDone) >= d.cfg.Iterations }

// IterationTimes returns the wall time of each completed iteration in ns.
func (d *Driver) IterationTimes() []int64 {
	out := make([]int64, len(d.iterDone))
	prev := int64(0)
	for i, t := range d.iterDone {
		out[i] = t - prev
		prev = t
	}
	return out
}

// IterationNVMWrites returns NVM bytes written during each iteration
// (application stores, migrations, and cache writebacks — Figure 16).
func (d *Driver) IterationNVMWrites() []float64 {
	out := make([]float64, len(d.iterWear))
	prev := d.startWear
	for i, w := range d.iterWear {
		out[i] = w - prev
		prev = w
	}
	return out
}

// HotVertexPages returns the hottest vertex zone (write-hot hubs).
func (d *Driver) HotVertexPages() *vm.PageSet { return d.vertexSets[0] }

// Iterations returns the number of completed iterations.
func (d *Driver) Iterations() int { return len(d.iterDone) }

func (d *Driver) String() string {
	return fmt.Sprintf("gap-bc{2^%d, %d iters}", d.cfg.Scale, d.cfg.Iterations)
}
