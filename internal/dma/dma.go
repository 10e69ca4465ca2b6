// Package dma models the Intel I/OAT DMA engine HeMem offloads page
// migration to (§3.2). The paper's kernel extension exposes a copy ioctl
// that accepts batches of up to 32 requests spread over a set of DMA
// channels; the authors measure that batches of 4 requests over 2 channels
// maximize copy throughput on their system, and that without a DMA engine,
// 4 copy threads maximize software copy performance.
//
// The model captures the constants behind those optima: a per-ioctl syscall
// cost amortized by batching, a per-request descriptor cost that grows with
// batch size (descriptor-ring pressure), a per-channel setup cost, per-
// channel bandwidth, and a shared engine ceiling that two channels already
// saturate.
package dma

import "github.com/tieredmem/hemem/internal/sim"

// The calibrated engine cost model.
const (
	// channelBW is per-channel copy bandwidth in bytes/ns (3.3 GB/s).
	channelBW = 3.3 * float64(sim.GB) / float64(sim.Second)
	// engineCap is the shared ceiling across channels in bytes/ns
	// (6.6 GB/s).
	engineCap = 6.6 * float64(sim.GB) / float64(sim.Second)
	// syscallBase is the fixed cost of one copy ioctl (ns).
	syscallBase = 1800
	// perRequest is the kernel descriptor setup cost per request (ns).
	perRequest = 400
	// perRequestSlope scales extra per-request cost with batch size
	// (descriptor-ring and completion-tracking pressure): +25% of
	// perRequest per extra batched request.
	perRequestSlope = 0.25
	// channelSetup is the per-request cost of engaging one channel (ns).
	channelSetup = 500
	// maxBatch is the largest batch one ioctl accepts (the paper's
	// extension allows 32).
	maxBatch = 32
	// maxChannels is how many channels the allocator may hand out.
	maxChannels = 8
)

// FallbackCopyThreads is the software-copy pool size, the paper's
// measured optimum of 4 threads: the migrator falls back to it when the
// DMA engine becomes unavailable, and HeMem under NoDMA and the scanning
// managers without DMA (Nimble) copy with it.
const FallbackCopyThreads = 4

// Engine is a DMA engine instance.
type Engine struct {
	// copiedBytes accounts total bytes moved, for reporting.
	copiedBytes float64
	// failed counts permanently failed channels (fault injection).
	failed int
	// derate scales channel and engine bandwidth during degraded episodes;
	// 1 means full speed.
	derate float64
}

// New returns an engine with every channel live, at full speed.
func New() *Engine { return &Engine{derate: 1} }

// FailChannel permanently removes one channel (a hardware fault) and
// returns how many remain live.
func (e *Engine) FailChannel() int {
	if e.failed < maxChannels {
		e.failed++
	}
	return e.LiveChannels()
}

// LiveChannels returns the number of channels still operational.
func (e *Engine) LiveChannels() int { return maxChannels - e.failed }

// SetDerate scales the engine's bandwidth by f in (0, 1]; out-of-range
// values restore full speed. Degraded-channel episodes use this.
func (e *Engine) SetDerate(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	e.derate = f
}

// Derate returns the current bandwidth multiplier.
func (e *Engine) Derate() float64 { return e.derate }

// BatchTime returns the time in ns to complete one ioctl carrying batch
// requests of reqSize bytes each, striped over channels.
func (e *Engine) BatchTime(batch, channels int, reqSize int64) int64 {
	batch, channels = e.clamp(batch, channels)
	if channels == 0 {
		return 0 // no live channels: the engine cannot copy at all
	}
	bw := channelBW * float64(channels)
	if bw > engineCap {
		bw = engineCap
	}
	bw *= e.derate
	perReq := float64(perRequest) * (1 + perRequestSlope*float64(batch-1))
	setup := float64(syscallBase) +
		float64(batch)*(perReq+float64(channelSetup)*float64(channels))
	transfer := float64(batch) * float64(reqSize) / bw
	return int64(setup + transfer)
}

// clamp bounds batch and channel counts to the engine's valid ranges,
// including channels lost to injected hardware faults.
func (e *Engine) clamp(batch, channels int) (int, int) {
	if batch < 1 {
		batch = 1
	}
	if batch > maxBatch {
		batch = maxBatch
	}
	if channels < 1 {
		channels = 1
	}
	if live := e.LiveChannels(); channels > live {
		channels = live
	}
	return batch, channels
}

// Throughput returns sustained copy bandwidth in bytes/ns when issuing
// back-to-back ioctls with the given batch/channel configuration.
func (e *Engine) Throughput(batch, channels int, reqSize int64) float64 {
	batch, channels = e.clamp(batch, channels)
	t := e.BatchTime(batch, channels, reqSize)
	if t <= 0 {
		return 0
	}
	return float64(batch) * float64(reqSize) / float64(t)
}

// BestConfig searches batch sizes and channel counts for the highest-
// throughput configuration at the given request size. On the default
// model with 4 KB requests this lands on batch 4, 2 channels — the paper's
// experimentally determined optimum.
func (e *Engine) BestConfig(reqSize int64) (batch, channels int) {
	best := 0.0
	batch, channels = 1, 1
	for b := 1; b <= maxBatch; b++ {
		for c := 1; c <= maxChannels; c++ {
			if tp := e.Throughput(b, c, reqSize); tp > best {
				best, batch, channels = tp, b, c
			}
		}
	}
	return batch, channels
}

// Copy accounts a bulk copy of size bytes and returns its duration using
// the engine's best configuration for 2 MB page requests. The engine
// consumes no CPU cores — that is its advantage over thread copying.
func (e *Engine) Copy(size int64) int64 {
	e.copiedBytes += float64(size)
	const pageReq = 2 * 1024 * 1024
	tp := e.Throughput(4, 2, pageReq)
	return int64(float64(size) / tp)
}

// CopiedBytes returns total bytes moved through the engine.
func (e *Engine) CopiedBytes() float64 { return e.copiedBytes }

// ThreadCopier models the fallback migration path: dedicated CPU threads
// copying pages with memcpy, akin to Nimble. The paper finds 4 threads
// maximize copy performance (the destination NVM write bandwidth saturates
// there); each thread occupies one core.
type ThreadCopier struct {
	// Threads is the number of copy threads (cores consumed).
	Threads int
	// PerThreadBW is the per-thread memcpy bandwidth in bytes/ns.
	PerThreadBW float64
	// CapBW bounds the aggregate (destination device ceiling).
	CapBW float64
}

// NewThreadCopier returns the calibrated software copier.
func NewThreadCopier(threads int) *ThreadCopier {
	if threads < 1 {
		threads = 1
	}
	return &ThreadCopier{
		Threads:     threads,
		PerThreadBW: sim.GBps(1.3),
		CapBW:       sim.GBps(4.8),
	}
}

// Throughput returns aggregate copy bandwidth in bytes/ns.
func (c *ThreadCopier) Throughput() float64 {
	bw := c.PerThreadBW * float64(c.Threads)
	if bw > c.CapBW {
		bw = c.CapBW
	}
	return bw
}
