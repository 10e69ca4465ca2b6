package ptscan

import "testing"

// Nimble's preset matches the paper's description: one kernel thread
// serializing scan and migration, copy threads instead of DMA, blind to
// read/write asymmetry. Its four copy threads are checked on the running
// machine by TestNimbleUsesCopyThreads; the HeMem variants keep write
// priority and the DMA engine, and only ScanOnly leaves pages in place.
func TestOptionsMatchPaper(t *testing.T) {
	nb := Nimble()
	if nb.async {
		t.Error("Nimble must serialize scan and migration on one thread")
	}
	if !nb.nimble {
		t.Error("Nimble copies with threads, not DMA, and ignores write skew (Table 2)")
	}
	if !nb.migrate {
		t.Error("Nimble must migrate")
	}
	for _, g := range []*Manager{HeMemPTAsync(), HeMemPTSync(), ScanOnly(nil)} {
		if g.nimble {
			t.Errorf("%s copies with threads or ignores write skew", g.name)
		}
		if g.migrate != (g.name != "HeMem-PT-ScanOnly") {
			t.Errorf("%s: migrate = %v", g.name, g.migrate)
		}
	}
	if a, s := HeMemPTAsync(), HeMemPTSync(); !a.async || s.async {
		t.Error("PT-Async must scan on its own thread, PT-Sync serialize")
	}
}
