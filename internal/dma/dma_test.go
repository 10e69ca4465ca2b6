package dma

import (
	"testing"
	"testing/quick"

	"github.com/tieredmem/hemem/internal/sim"
)

// "Experimentally, we determine that a batch size of 4, using 2 DMA
// channels concurrently, achieves the highest DMA performance on our
// system." (§3.2). The search optimum of the calibrated model must agree
// at the 4 KB request size where ioctl overheads matter.
func TestBestConfigMatchesPaper(t *testing.T) {
	e := New()
	batch, channels := e.BestConfig(4 * sim.KB)
	if batch != 4 || channels != 2 {
		t.Fatalf("BestConfig(4KB) = batch %d × %d channels, paper says 4 × 2", batch, channels)
	}
}

func TestTwoChannelsSaturateEngine(t *testing.T) {
	e := New()
	t2 := e.Throughput(4, 2, 2*sim.MB)
	t4 := e.Throughput(4, 4, 2*sim.MB)
	if t4 > t2 {
		t.Fatalf("4 channels beat 2 on large requests: %.2f > %.2f GB/s",
			sim.BytesPerNsToGBps(t4), sim.BytesPerNsToGBps(t2))
	}
	// Large-page copies approach the engine ceiling.
	if gb := sim.BytesPerNsToGBps(t2); gb < 6.0 || gb > 6.6 {
		t.Fatalf("2MB-page copy throughput = %.2f GB/s, want near 6.6", gb)
	}
}

func TestBatchingAmortizesSyscall(t *testing.T) {
	e := New()
	one := e.Throughput(1, 2, 4*sim.KB)
	four := e.Throughput(4, 2, 4*sim.KB)
	if four <= one {
		t.Fatalf("batch 4 (%.2f GB/s) not faster than batch 1 (%.2f GB/s)",
			sim.BytesPerNsToGBps(four), sim.BytesPerNsToGBps(one))
	}
	// But unbounded batching is not free: 32 is worse than 4.
	big := e.Throughput(32, 2, 4*sim.KB)
	if big >= four {
		t.Fatalf("batch 32 (%.2f) should trail batch 4 (%.2f)",
			sim.BytesPerNsToGBps(big), sim.BytesPerNsToGBps(four))
	}
}

func TestBatchTimeClamps(t *testing.T) {
	e := New()
	if e.BatchTime(0, 0, 4*sim.KB) != e.BatchTime(1, 1, 4*sim.KB) {
		t.Fatal("out-of-range batch/channels not clamped low")
	}
	if e.BatchTime(100, 100, 4*sim.KB) != e.BatchTime(32, 8, 4*sim.KB) {
		t.Fatal("out-of-range batch/channels not clamped high")
	}
}

func TestCopyAccounting(t *testing.T) {
	e := New()
	d := e.Copy(64 * sim.MB)
	if d <= 0 {
		t.Fatal("copy duration must be positive")
	}
	// ~64MB at ~6.5GB/s ≈ 10ms.
	if d < 8*sim.Millisecond || d > 12*sim.Millisecond {
		t.Fatalf("64MB copy = %v ms, want ~10", d/sim.Millisecond)
	}
	if e.CopiedBytes() != float64(64*sim.MB) {
		t.Fatalf("CopiedBytes = %v", e.CopiedBytes())
	}
}

// "We find that 4 threads maximize copy performance using this method."
func TestThreadCopierSaturatesAtFour(t *testing.T) {
	three := NewThreadCopier(3).Throughput()
	four := NewThreadCopier(4).Throughput()
	eight := NewThreadCopier(8).Throughput()
	if four <= three {
		t.Fatal("4 threads should beat 3")
	}
	if eight > four {
		t.Fatalf("8 threads (%.2f GB/s) beat 4 (%.2f GB/s)",
			sim.BytesPerNsToGBps(eight), sim.BytesPerNsToGBps(four))
	}
	if NewThreadCopier(0).Threads != 1 {
		t.Fatal("thread count not clamped to 1")
	}
}

// DMA beats thread copy in throughput and uses no cores.
func TestDMABeatsThreads(t *testing.T) {
	e := New()
	dma := e.Throughput(4, 2, 2*sim.MB)
	threads := NewThreadCopier(4).Throughput()
	if dma <= threads {
		t.Fatalf("DMA %.2f GB/s should beat 4-thread copy %.2f GB/s",
			sim.BytesPerNsToGBps(dma), sim.BytesPerNsToGBps(threads))
	}
}

// Property: throughput is positive and bounded by the engine cap for all
// configurations.
func TestThroughputBounds(t *testing.T) {
	e := New()
	f := func(b, c uint8, sz uint16) bool {
		tp := e.Throughput(int(b%40), int(c%10), int64(sz)+1)
		return tp > 0 && tp <= engineCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The bandwidth constants are the calibrated GB/s figures converted
// exactly as sim.GBps converts them, bit for bit.
func TestBandwidthConstantsMatchGBps(t *testing.T) {
	if channelBW != sim.GBps(3.3) || engineCap != sim.GBps(6.6) {
		t.Fatalf("channel %v, cap %v bytes/ns; sim.GBps gives %v, %v",
			channelBW, engineCap, sim.GBps(3.3), sim.GBps(6.6))
	}
}
