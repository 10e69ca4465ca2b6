package bench

import "testing"

// TestTBScaleSmoke runs the quick (64 GB) tbscale variant end to end —
// both the dense baseline and the sparse run — and checks the
// properties the experiment's table asserts: identical
// simulated outcomes, and metadata resident bytes that scale with the
// touched pages rather than the mapping. The rendered table is pinned,
// at -jobs 8, by TestExperimentGoldens' tbscale row.
func TestTBScaleSmoke(t *testing.T) {
	o := Opts{}
	dense := tbscaleRun(o, true)
	sparse := tbscaleRun(o, false)

	if dense.digest != sparse.digest {
		t.Fatalf("sparse run diverged from dense baseline: %016x vs %016x",
			dense.digest, sparse.digest)
	}
	if dense.ops <= 0 || dense.faults <= 0 {
		t.Fatalf("degenerate run: ops=%v faults=%d", dense.ops, dense.faults)
	}
	if dense.touched != dense.total {
		t.Fatalf("dense row did not materialize the mapping: %d/%d", dense.touched, dense.total)
	}
	if sparse.touched >= sparse.total/2 {
		t.Fatalf("sparse row touched %d of %d pages — the schedule no longer leaves most of the mapping cold",
			sparse.touched, sparse.total)
	}
	if sparse.metaBytes >= dense.metaBytes/2 {
		t.Fatalf("sparse metadata %d B is not meaningfully below dense %d B",
			sparse.metaBytes, dense.metaBytes)
	}
}
