package gap

import "sync"

// Calibration-graph cache. Every BC driver (and every sweep cell running
// one) generates a small "calibration" Kronecker graph to measure degree
// skew — a pure function of (Scale, EdgeFactor, Seed), since Kronecker
// seeds its own RNG from the config and Build/ChunkTraffic are
// deterministic. Rebuilding it per cell was ~10% of suite CPU (see
// "Profiling the simulator" in EXPERIMENTS.md), so identical configs
// share one graph and one traffic summary across cells and across
// parallel sweep workers.
//
// Entries use a sync.Once so concurrent workers requesting the same key
// build it exactly once; the maps are guarded by a mutex. Cached values
// are treated as immutable by all callers (Graph is read-only after
// Build; traffic slices are never written after ChunkTraffic).

type calibKey struct {
	scale      int
	edgeFactor int
	seed       uint64
}

type trafficKey struct {
	calibKey
	chunks int
}

type calibEntry struct {
	once sync.Once
	g    *Graph
}

var (
	calibMu      sync.Mutex
	calibGraphs  = map[calibKey]*calibEntry{}
	trafficCache = map[trafficKey][]float64{}
)

// normCalibKey applies the same defaulting Kronecker does, so callers
// that spell EdgeFactor 0 and 16 share an entry.
func normCalibKey(cfg KroneckerConfig) calibKey {
	ef := cfg.EdgeFactor
	if ef == 0 {
		ef = 16
	}
	return calibKey{scale: cfg.Scale, edgeFactor: ef, seed: cfg.Seed}
}

// CalibrationGraph returns the built (symmetrized CSR) Kronecker graph
// for cfg, generating it on first use and caching it for the life of the
// process. The result is shared and must not be mutated. Safe for
// concurrent use; concurrent first calls build the graph exactly once.
func CalibrationGraph(cfg KroneckerConfig) *Graph {
	key := normCalibKey(cfg)
	calibMu.Lock()
	e := calibGraphs[key]
	if e == nil {
		e = &calibEntry{}
		calibGraphs[key] = e
	}
	calibMu.Unlock()
	e.once.Do(func() {
		edges := Kronecker(KroneckerConfig{Scale: key.scale, EdgeFactor: key.edgeFactor, Seed: key.seed})
		e.g = Build(1<<key.scale, edges)
	})
	return e.g
}

// CalibrationTraffic returns CalibrationGraph(cfg).ChunkTraffic(chunks),
// cached per (cfg, chunks). The returned slice is shared and must not be
// mutated. Safe for concurrent use.
func CalibrationTraffic(cfg KroneckerConfig, chunks int) []float64 {
	key := trafficKey{calibKey: normCalibKey(cfg), chunks: chunks}
	calibMu.Lock()
	if t, ok := trafficCache[key]; ok {
		calibMu.Unlock()
		return t
	}
	calibMu.Unlock()
	t := CalibrationGraph(cfg).ChunkTraffic(chunks)
	calibMu.Lock()
	if prev, ok := trafficCache[key]; ok {
		t = prev
	} else {
		trafficCache[key] = t
	}
	calibMu.Unlock()
	return t
}
