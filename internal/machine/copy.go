package machine

import "github.com/tieredmem/hemem/internal/sim"

// The migrator's copy engine. HeMem offloads page copies to the Intel
// I/OAT DMA engine (§3.2): the paper's kernel extension exposes a copy
// ioctl that takes batches of requests spread over DMA channels, and the
// authors measure that batches of 4 requests over 2 channels maximize
// copy throughput. Without a DMA engine (HeMem's NoDMA ablation, Nimble,
// or after every channel failed) 4 dedicated copy threads move pages,
// the paper's measured optimum for software copying.
//
// The DMA model captures the constants behind those optima: a per-ioctl
// syscall cost amortized by batching, a per-request descriptor cost that
// grows with batch size (descriptor-ring pressure), a per-channel setup
// cost, per-channel bandwidth, and a shared engine ceiling that two
// channels already saturate.
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
	// dmaChannels is how many channels the engine has before faults.
	dmaChannels = 8
	// copyThreads is the software-copy pool size. The pool is dedicated:
	// like Nimble's migration kthreads, the workers hold their cores
	// whether or not a migration is in flight, which is why the paper
	// measures a persistent throughput cost for the no-DMA configuration
	// (Figure 7).
	copyThreads = 4
)

// dmaThroughput returns the engine's sustained copy bandwidth in bytes/ns
// when issuing back-to-back ioctls of batch requests of reqSize bytes,
// striped over channels of the live ones, at a bandwidth derate. Batch and
// channel counts below 1 count as 1; with no live channel the engine
// cannot copy at all.
func dmaThroughput(batch, channels, live int, reqSize int64, derate float64) float64 {
	batch = max(batch, 1)
	channels = min(max(channels, 1), live)
	if channels <= 0 {
		return 0
	}
	bw := min(channelBW*float64(channels), engineCap) * derate
	perReq := float64(perRequest) * (1 + perRequestSlope*float64(batch-1))
	setup := float64(syscallBase) +
		float64(batch)*(perReq+float64(channelSetup)*float64(channels))
	transfer := float64(batch) * float64(reqSize) / bw
	// One ioctl takes whole nanoseconds, at least syscallBase of them.
	t := int64(setup + transfer)
	return float64(batch) * float64(reqSize) / float64(t)
}

// threadThroughput returns the aggregate memcpy bandwidth of threads copy
// threads in bytes/ns: 1.3 GB/s each, up to the destination device's
// 4.8 GB/s ceiling, which 4 threads already reach.
func threadThroughput(threads int) float64 {
	return min(sim.GBps(1.3)*float64(threads), sim.GBps(4.8))
}

// UseCopyThreads selects the copy engine a manager asks for: the copy
// thread pool when on, else the DMA engine. A DMA engine that lost every
// channel stays dead: the migrator keeps copying with threads.
func (g *Migrator) UseCopyThreads(on bool) {
	g.threads = 0
	if on || g.failedChannels == dmaChannels {
		g.threads = copyThreads
	}
}

// CopyThreads returns the number of copy threads moving pages; 0 means
// the DMA engine copies.
func (g *Migrator) CopyThreads() int { return g.threads }

// CopyThroughput returns the copy engine's sustained page-copy bandwidth
// in bytes/ns: the thread pool's, or the DMA engine's at the paper's
// batch of 4 requests of 2 MB pages over 2 channels.
func (g *Migrator) CopyThroughput() float64 {
	if g.threads > 0 {
		return threadThroughput(g.threads)
	}
	return dmaThroughput(4, 2, dmaChannels-g.failedChannels, 2*sim.MB, g.dmaDerate)
}

// FailDMAChannel removes one DMA channel after an injected hardware fault.
// It returns the number of channels still live and whether this failure
// exhausted the engine, triggering the fall back to the copy threads. A
// migrator already copying with threads drops the failure and returns
// (-1, false).
func (g *Migrator) FailDMAChannel() (live int, fellBack bool) {
	if g.threads > 0 {
		return -1, false
	}
	g.failedChannels++
	live = dmaChannels - g.failedChannels
	if live == 0 {
		g.threads = copyThreads
		return 0, true
	}
	return live, false
}

// setDMADerate scales the DMA engine's bandwidth by f in (0, 1] during
// degraded-channel episodes; out-of-range values restore full speed.
func (g *Migrator) setDMADerate(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	g.dmaDerate = f
}
