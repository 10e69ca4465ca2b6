package machine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tieredmem/hemem/internal/sim"
)

// The migrator's page-copy bandwidth, bit for bit, as the calibrated model
// gives it: the DMA engine at every live channel count at full speed and
// at a 0.5 derate, and the 4-thread pool. Only the last channel halves
// the engine (2 channels already saturate it); the pool sits at its
// 4.8 GB/s device ceiling.
func TestCopyThroughputPin(t *testing.T) {
	const (
		full  = 0x401c246f6c01650e // 7.035581290803078
		one   = 0x400c449a5dc0d728 // 3.5334975552058445
		fullH = 0x400c3e82fab40ef4 // 3.5305232607078043
		oneH  = 0x3ffc4ead1b583412 // 1.7692080562731047
		pool  = 0x40149da7e361ce4c // 5.1539607552
	)
	for _, c := range []struct {
		derate    float64
		many, one uint64
	}{{1, full, one}, {0.5, fullH, oneH}} {
		for live := dmaChannels; live >= 1; live-- {
			g := NewMigrator(nil)
			g.failedChannels = dmaChannels - live
			g.setDMADerate(c.derate)
			want := c.many
			if live == 1 {
				want = c.one
			}
			if got := math.Float64bits(g.CopyThroughput()); got != want {
				t.Errorf("%d live channels at derate %v: %#x (%v), want %#x (%v)", live, c.derate,
					got, math.Float64frombits(got), want, math.Float64frombits(want))
			}
		}
	}
	g := NewMigrator(nil)
	g.UseCopyThreads(true)
	if got := math.Float64bits(g.CopyThroughput()); got != pool || g.CopyThreads() != 4 {
		t.Errorf("copy threads: %d at %#x (%v), want 4 at %#x (%v)", g.CopyThreads(),
			got, math.Float64frombits(got), uint64(pool), math.Float64frombits(pool))
	}
}

// "Experimentally, we determine that a batch size of 4, using 2 DMA
// channels concurrently, achieves the highest DMA performance on our
// system." (§3.2). The search optimum of the calibrated model over every
// batch the paper's ioctl accepts (up to 32) and every channel must agree
// at the 4 KB request size where ioctl overheads matter.
func TestBestConfigMatchesPaper(t *testing.T) {
	best, batch, channels := 0.0, 0, 0
	for b := 1; b <= 32; b++ {
		for c := 1; c <= dmaChannels; c++ {
			if tp := dmaThroughput(b, c, dmaChannels, 4*sim.KB, 1); tp > best {
				best, batch, channels = tp, b, c
			}
		}
	}
	if batch != 4 || channels != 2 {
		t.Fatalf("best config at 4KB = batch %d × %d channels, paper says 4 × 2", batch, channels)
	}
}

func TestTwoChannelsSaturateEngine(t *testing.T) {
	t2 := dmaThroughput(4, 2, dmaChannels, 2*sim.MB, 1)
	t4 := dmaThroughput(4, 4, dmaChannels, 2*sim.MB, 1)
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
	one := dmaThroughput(1, 2, dmaChannels, 4*sim.KB, 1)
	four := dmaThroughput(4, 2, dmaChannels, 4*sim.KB, 1)
	if four <= one {
		t.Fatalf("batch 4 (%.2f GB/s) not faster than batch 1 (%.2f GB/s)",
			sim.BytesPerNsToGBps(four), sim.BytesPerNsToGBps(one))
	}
	// But unbounded batching is not free: 32 is worse than 4.
	big := dmaThroughput(32, 2, dmaChannels, 4*sim.KB, 1)
	if big >= four {
		t.Fatalf("batch 32 (%.2f) should trail batch 4 (%.2f)",
			sim.BytesPerNsToGBps(big), sim.BytesPerNsToGBps(four))
	}
}

// Batch and channel counts below 1 count as 1; channels beyond the live
// ones count as the live ones, and with none live the engine copies
// nothing.
func TestBatchTimeClamps(t *testing.T) {
	if dmaThroughput(0, 0, dmaChannels, 4*sim.KB, 1) != dmaThroughput(1, 1, dmaChannels, 4*sim.KB, 1) {
		t.Fatal("out-of-range batch/channels not clamped low")
	}
	if dmaThroughput(4, 2, 1, 4*sim.KB, 1) != dmaThroughput(4, 1, dmaChannels, 4*sim.KB, 1) {
		t.Fatal("channels not clamped to the live ones")
	}
	if tp := dmaThroughput(4, 2, 0, 4*sim.KB, 1); tp != 0 {
		t.Fatalf("dead engine copies at %v bytes/ns", tp)
	}
}

// "We find that 4 threads maximize copy performance using this method."
func TestThreadPoolSaturatesAtFour(t *testing.T) {
	three, four, eight := threadThroughput(3), threadThroughput(4), threadThroughput(8)
	if four <= three {
		t.Fatal("4 threads should beat 3")
	}
	if eight > four {
		t.Fatalf("8 threads (%.2f GB/s) beat 4 (%.2f GB/s)",
			sim.BytesPerNsToGBps(eight), sim.BytesPerNsToGBps(four))
	}
}

// DMA beats thread copy in throughput and uses no cores.
func TestDMABeatsThreads(t *testing.T) {
	dma := dmaThroughput(4, 2, dmaChannels, 2*sim.MB, 1)
	threads := threadThroughput(copyThreads)
	if dma <= threads {
		t.Fatalf("DMA %.2f GB/s should beat 4-thread copy %.2f GB/s",
			sim.BytesPerNsToGBps(dma), sim.BytesPerNsToGBps(threads))
	}
}

// Property: throughput is positive and bounded by the engine cap for all
// configurations.
func TestThroughputBounds(t *testing.T) {
	f := func(b, c uint8, sz uint16) bool {
		tp := dmaThroughput(int(b%40), int(c%10), dmaChannels, int64(sz)+1, 1)
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
