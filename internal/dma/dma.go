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

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/sim"
)

// Config holds the engine cost model parameters.
type Config struct {
	// ChannelBW is per-channel copy bandwidth in bytes/ns.
	ChannelBW float64
	// EngineCap is the shared ceiling across channels in bytes/ns.
	EngineCap float64
	// SyscallBase is the fixed cost of one copy ioctl (ns).
	SyscallBase int64
	// PerRequest is the kernel descriptor setup cost per request (ns).
	PerRequest int64
	// PerRequestSlope scales extra per-request cost with batch size
	// (descriptor-ring and completion-tracking pressure).
	PerRequestSlope float64
	// ChannelSetup is the per-request cost of engaging one channel (ns).
	ChannelSetup int64
	// MaxBatch is the largest batch one ioctl accepts (the paper's
	// extension allows 32).
	MaxBatch int
	// MaxChannels is how many channels the allocator may hand out.
	MaxChannels int
}

// DefaultConfig returns the calibrated I/OAT model.
func DefaultConfig() Config {
	return Config{
		ChannelBW:       sim.GBps(3.3),
		EngineCap:       sim.GBps(6.6),
		SyscallBase:     1800,
		PerRequest:      400,
		PerRequestSlope: 0.25, // +25% of PerRequest per extra batched request
		ChannelSetup:    500,
		MaxBatch:        32,
		MaxChannels:     8,
	}
}

// Validate reports the first invalid parameter, or nil. Zero values are
// valid (they fall back to defaults in New).
func (c Config) Validate() error {
	if c.ChannelBW < 0 || c.EngineCap < 0 {
		return fmt.Errorf("dma: negative bandwidth (channel %v, cap %v)", c.ChannelBW, c.EngineCap)
	}
	if c.SyscallBase < 0 || c.PerRequest < 0 || c.ChannelSetup < 0 {
		return fmt.Errorf("dma: negative per-request cost")
	}
	if c.PerRequestSlope < 0 {
		return fmt.Errorf("dma: negative PerRequestSlope %v", c.PerRequestSlope)
	}
	if c.MaxBatch < 0 || c.MaxChannels < 0 {
		return fmt.Errorf("dma: negative batch/channel limit")
	}
	return nil
}

// withDefaults fills zero-value fields field-by-field, so a caller that
// overrides only some parameters keeps the rest calibrated.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.ChannelBW == 0 {
		c.ChannelBW = def.ChannelBW
	}
	if c.EngineCap == 0 {
		c.EngineCap = def.EngineCap
	}
	if c.SyscallBase == 0 {
		c.SyscallBase = def.SyscallBase
	}
	if c.PerRequest == 0 {
		c.PerRequest = def.PerRequest
	}
	if c.PerRequestSlope == 0 {
		c.PerRequestSlope = def.PerRequestSlope
	}
	if c.ChannelSetup == 0 {
		c.ChannelSetup = def.ChannelSetup
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = def.MaxBatch
	}
	if c.MaxChannels == 0 {
		c.MaxChannels = def.MaxChannels
	}
	return c
}

// FallbackCopyThreads is the software-copy pool size, the paper's
// measured optimum of 4 threads: the migrator falls back to it when the
// DMA engine becomes unavailable, and HeMem under NoDMA and the scanning
// managers without DMA (Nimble) copy with it.
const FallbackCopyThreads = 4

// Engine is a DMA engine instance.
type Engine struct {
	cfg Config
	// copiedBytes accounts total bytes moved, for reporting.
	copiedBytes float64
	// failed counts permanently failed channels (fault injection).
	failed int
	// derate scales channel and engine bandwidth during degraded episodes;
	// 1 means full speed.
	derate float64
}

// New returns an engine with cfg; zero-value fields fall back to defaults
// field-by-field, so partially specified configs keep the remaining
// parameters calibrated.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), derate: 1}
}

// FailChannel permanently removes one channel (a hardware fault) and
// returns how many remain live.
func (e *Engine) FailChannel() int {
	if e.failed < e.cfg.MaxChannels {
		e.failed++
	}
	return e.LiveChannels()
}

// LiveChannels returns the number of channels still operational.
func (e *Engine) LiveChannels() int { return e.cfg.MaxChannels - e.failed }

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

// Config returns the engine's parameters.
func (e *Engine) Config() Config { return e.cfg }

// BatchTime returns the time in ns to complete one ioctl carrying batch
// requests of reqSize bytes each, striped over channels.
func (e *Engine) BatchTime(batch, channels int, reqSize int64) int64 {
	batch, channels = e.clamp(batch, channels)
	if channels == 0 {
		return 0 // no live channels: the engine cannot copy at all
	}
	bw := e.cfg.ChannelBW * float64(channels)
	if bw > e.cfg.EngineCap {
		bw = e.cfg.EngineCap
	}
	bw *= e.derate
	perReq := float64(e.cfg.PerRequest) * (1 + e.cfg.PerRequestSlope*float64(batch-1))
	setup := float64(e.cfg.SyscallBase) +
		float64(batch)*(perReq+float64(e.cfg.ChannelSetup)*float64(channels))
	transfer := float64(batch) * float64(reqSize) / bw
	return int64(setup + transfer)
}

// clamp bounds batch and channel counts to the engine's valid ranges,
// including channels lost to injected hardware faults.
func (e *Engine) clamp(batch, channels int) (int, int) {
	if batch < 1 {
		batch = 1
	}
	if batch > e.cfg.MaxBatch {
		batch = e.cfg.MaxBatch
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
	for b := 1; b <= e.cfg.MaxBatch; b++ {
		for c := 1; c <= e.cfg.MaxChannels; c++ {
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
