package gap

import (
	"sync"
	"testing"
)

// TestCalibrationCacheMatchesDirect pins the cache's transparency: the
// cached graph and traffic summary must equal a direct (uncached)
// generation.
func TestCalibrationCacheMatchesDirect(t *testing.T) {
	const seed = 99
	cfg := calibrationConfig(seed)
	direct := Build(1<<cfg.Scale, Kronecker(cfg))
	cached := calibrationGraph(seed)
	if cached.N != direct.N || len(cached.Neighbors) != len(direct.Neighbors) {
		t.Fatalf("cached graph shape (%d, %d) != direct (%d, %d)",
			cached.N, len(cached.Neighbors), direct.N, len(direct.Neighbors))
	}
	for i := range direct.Neighbors {
		if cached.Neighbors[i] != direct.Neighbors[i] {
			t.Fatalf("neighbor %d: cached %d != direct %d", i, cached.Neighbors[i], direct.Neighbors[i])
		}
	}
	if again := calibrationGraph(seed); again != cached {
		t.Fatal("a second lookup built a second graph")
	}
	const chunks = 37
	want := direct.ChunkTraffic(chunks)
	got := calibrationTraffic(seed, chunks)
	if len(got) != len(want) {
		t.Fatalf("traffic length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traffic[%d]: cached %v != direct %v", i, got[i], want[i])
		}
	}
}

// TestCalibrationCacheConcurrent hammers the cache from concurrent
// workers (as parallel sweep cells do) and checks every worker saw the
// one graph and the identical summary. Run under -race this also proves
// the build-once synchronization is sound. (TestCalibrationCacheMatchesDirect
// checks the cached graph against a direct build.)
func TestCalibrationCacheConcurrent(t *testing.T) {
	const seed, chunks = 7, 53
	const workers = 8
	graphs := make([]*Graph, workers)
	results := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			graphs[w] = calibrationGraph(seed)
			_ = graphs[w].DegreeSkew(0.1)
			results[w] = calibrationTraffic(seed, chunks)
		}(w)
	}
	wg.Wait()
	want := graphs[0].ChunkTraffic(chunks)
	for w, got := range results {
		if graphs[w] != graphs[0] {
			t.Fatalf("worker %d got a second graph", w)
		}
		if len(got) != len(want) {
			t.Fatalf("worker %d: traffic length %d, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d traffic[%d]: %v != %v", w, i, got[i], want[i])
			}
		}
	}
}
