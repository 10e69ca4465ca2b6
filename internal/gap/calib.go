package gap

import "sync"

// Calibration-graph cache. Every BC driver (and every sweep cell running
// one) generates a small "calibration" Kronecker graph to measure degree
// skew — a pure function of the seed, since Kronecker seeds its own RNG
// from the config and Build/ChunkTraffic are deterministic. Rebuilding it
// per cell was ~10% of suite CPU (see "Profiling the simulator" in
// EXPERIMENTS.md), so drivers of one seed share one graph and one traffic
// summary across cells and across parallel sweep workers.
//
// Entries use a sync.Once so concurrent workers requesting the same seed
// build it exactly once; the maps are guarded by a mutex. Cached values
// are treated as immutable by all callers (Graph is read-only after
// Build; traffic slices are never written after ChunkTraffic).

// calibrationScale is log2 of the calibration graph's vertex count.
const calibrationScale = 18

type trafficKey struct {
	seed   uint64
	chunks int
}

type calibEntry struct {
	once sync.Once
	g    *Graph
}

var (
	calibMu      sync.Mutex
	calibGraphs  = map[uint64]*calibEntry{}
	trafficCache = map[trafficKey][]float64{}
)

// calibrationConfig is the generator config of seed's calibration graph.
func calibrationConfig(seed uint64) KroneckerConfig {
	return KroneckerConfig{Scale: calibrationScale, EdgeFactor: edgeFactor, Seed: seed}
}

// calibrationGraph returns the built (symmetrized CSR) Kronecker graph
// of calibrationConfig(seed), generating it on first use and caching it
// for the life of the process. The result is shared and must not be
// mutated. Safe for concurrent use; concurrent first calls build the
// graph exactly once.
func calibrationGraph(seed uint64) *Graph {
	calibMu.Lock()
	e := calibGraphs[seed]
	if e == nil {
		e = &calibEntry{}
		calibGraphs[seed] = e
	}
	calibMu.Unlock()
	e.once.Do(func() {
		e.g = Build(1<<calibrationScale, Kronecker(calibrationConfig(seed)))
	})
	return e.g
}

// calibrationTraffic returns calibrationGraph(seed).ChunkTraffic(chunks),
// cached per (seed, chunks). The returned slice is shared and must not be
// mutated. Safe for concurrent use.
func calibrationTraffic(seed uint64, chunks int) []float64 {
	key := trafficKey{seed, chunks}
	calibMu.Lock()
	if t, ok := trafficCache[key]; ok {
		calibMu.Unlock()
		return t
	}
	calibMu.Unlock()
	t := calibrationGraph(seed).ChunkTraffic(chunks)
	calibMu.Lock()
	if prev, ok := trafficCache[key]; ok {
		t = prev
	} else {
		trafficCache[key] = t
	}
	calibMu.Unlock()
	return t
}
