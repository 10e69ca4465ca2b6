// Package mem models the two main-memory technologies of the paper's
// testbed: DDR4 DRAM and Intel Optane DC NVM (Table 1). The models are
// analytic — latency plus per-thread streaming bandwidth with per-pattern
// saturation ceilings — and are calibrated so that the microbenchmark
// observations of the paper's §2.2 hold:
//
//   - DRAM sequential/random write throughput is 16.5×/10.7× Optane's.
//   - DRAM random read throughput is 2.7× Optane's.
//   - Optane sequential read exceeds DRAM random read by 14%.
//   - Optane write bandwidth saturates at ~4 threads; reads scale further.
//   - Optane media access granularity is 256 B: smaller accesses pay for a
//     full 256 B media transfer (and wear NVM by 256 B on writes).
//
// Devices also keep wear counters (bytes and operations, read and write at
// media granularity), which back the paper's Figure 16 NVM-wear comparison.
package mem

import (
	"fmt"

	"github.com/tieredmem/hemem/internal/sim"
)

// Kind distinguishes reads from writes. NVM bandwidth is strongly
// asymmetric between the two, which is the root of HeMem's write-heavy
// page policy.
type Kind int

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Pattern distinguishes sequential streams (prefetchable, latency hidden)
// from random accesses (latency exposed per block).
type Pattern int

const (
	Sequential Pattern = iota
	Random
)

func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

// Spec is the full parameter set of one memory device.
type Spec struct {
	Name     string
	Capacity int64

	// ReadLatency and WriteLatency are exposed per random access, in ns.
	// Sequential accesses instead pay SeqOverhead (prefetched).
	ReadLatency  int64
	WriteLatency int64
	SeqOverhead  int64

	// Stream is the per-thread transfer bandwidth once a sequential
	// access has started, in bytes/ns, per kind.
	Stream [2]float64

	// StreamRand is the per-thread transfer bandwidth for random
	// accesses, per kind. Random chunks are assembled from
	// media-granularity blocks with limited memory-level parallelism, so
	// a random 4 KB NVM read achieves ~2.3 GB/s per thread where a
	// sequential one streams at 8 GB/s — the penalty behind "accessing
	// small objects randomly on Optane is slow" (§2.2).
	StreamRand [2]float64

	// Peak caps aggregate throughput, in bytes/ns, per [kind][pattern].
	Peak [2][2]float64

	// MediaGranularity is the smallest unit the media transfers. Accesses
	// below it are rounded up (Optane: 256 B; §2.2).
	MediaGranularity int64
}

// Wear aggregates device traffic counters at media granularity.
type Wear struct {
	ReadBytes  float64
	WriteBytes float64
	ReadOps    float64
	WriteOps   float64
}

// Validate reports the first invalid spec parameter, or nil.
func (s Spec) Validate() error {
	if s.Capacity < 0 {
		return fmt.Errorf("mem: %s capacity %d negative", s.Name, s.Capacity)
	}
	if s.ReadLatency < 0 || s.WriteLatency < 0 || s.SeqOverhead < 0 {
		return fmt.Errorf("mem: %s has negative latency", s.Name)
	}
	for k := 0; k < 2; k++ {
		if s.Stream[k] <= 0 || s.StreamRand[k] <= 0 {
			return fmt.Errorf("mem: %s stream bandwidth must be positive", s.Name)
		}
		for p := 0; p < 2; p++ {
			if s.Peak[k][p] <= 0 {
				return fmt.Errorf("mem: %s peak bandwidth must be positive", s.Name)
			}
		}
	}
	if s.MediaGranularity < 0 {
		return fmt.Errorf("mem: %s media granularity %d negative", s.Name, s.MediaGranularity)
	}
	return nil
}

// Device is a memory device instance with live wear counters.
type Device struct {
	Spec Spec
	wear Wear
	// derate scales bandwidth during injected throttle episodes (NVM
	// thermal throttling); 1 means full speed.
	derate  float64
	version uint64 // see Version
}

// New returns a device with the given spec.
func New(spec Spec) *Device { return &Device{Spec: spec, derate: 1} }

// SetDerate scales the device's bandwidth (stream rates and saturation
// ceilings) by f in (0, 1]; out-of-range values restore full speed.
// Latency is unaffected: throttling caps transfer rates, it does not slow
// the first access.
func (d *Device) SetDerate(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	if f != d.Derate() {
		d.version++
	}
	d.derate = f
}

// Version counts SetDerate's changes of the derate: every derived rate,
// ceiling and access time is a function of the Spec and the derate.
func (d *Device) Version() uint64 { return d.version }

// Derate returns the current bandwidth multiplier.
func (d *Device) Derate() float64 {
	if d.derate == 0 {
		return 1 // zero-value Device constructed without New
	}
	return d.derate
}

// DRAMSpec returns the calibrated DDR4 spec of the paper's testbed socket
// (192 GB, 6 channels) scaled to the given capacity.
func DRAMSpec(capacity int64) Spec {
	return Spec{
		Name:             "DRAM",
		Capacity:         capacity,
		ReadLatency:      82,
		WriteLatency:     82,
		SeqOverhead:      5,
		Stream:           [2]float64{sim.GBps(12.9), sim.GBps(10.5)},
		StreamRand:       [2]float64{sim.GBps(7.5), sim.GBps(8)},
		Peak:             [2][2]float64{{sim.GBps(107), sim.GBps(28)}, {sim.GBps(80), sim.GBps(25)}},
		MediaGranularity: 64,
	}
}

// NVMSpec returns the calibrated Intel Optane DC spec (768 GB per socket in
// the paper) scaled to the given capacity.
func NVMSpec(capacity int64) Spec {
	return Spec{
		Name:             "NVM",
		Capacity:         capacity,
		ReadLatency:      175,
		WriteLatency:     94,
		SeqOverhead:      5,
		Stream:           [2]float64{sim.GBps(8.0), sim.GBps(1.3)},
		StreamRand:       [2]float64{sim.GBps(2.3), sim.GBps(1.3)},
		Peak:             [2][2]float64{{sim.GBps(32), sim.GBps(10.5)}, {sim.GBps(4.8), sim.GBps(2.3)}},
		MediaGranularity: 256,
	}
}

// DiskSpec returns an NVMe-flash spec for the optional swap tier the
// paper's §3.4 discusses ("Swapping to a block device can provide an
// additional, slowest, memory tier"): ~80 µs read latency, 4 KB media
// granularity, and single-digit GB/s streaming.
func DiskSpec(capacity int64) Spec {
	return Spec{
		Name:             "Disk",
		Capacity:         capacity,
		ReadLatency:      80_000,
		WriteLatency:     20_000, // buffered writes
		SeqOverhead:      5_000,
		Stream:           [2]float64{sim.GBps(3.0), sim.GBps(2.0)},
		StreamRand:       [2]float64{sim.GBps(1.2), sim.GBps(0.9)},
		Peak:             [2][2]float64{{sim.GBps(3.5), sim.GBps(1.5)}, {sim.GBps(2.5), sim.GBps(1.0)}},
		MediaGranularity: 4096,
	}
}

// NewDRAM returns a calibrated DRAM device of the given capacity.
func NewDRAM(capacity int64) *Device { return New(DRAMSpec(capacity)) }

// NewNVM returns a calibrated Optane device of the given capacity.
func NewNVM(capacity int64) *Device { return New(NVMSpec(capacity)) }

// MediaBytes rounds size up to the media access granularity.
func (d *Device) MediaBytes(size int64) int64 {
	g := d.Spec.MediaGranularity
	if size <= 0 {
		return 0
	}
	if g <= 1 {
		return size
	}
	return (size + g - 1) / g * g
}

// latency returns the exposed per-access startup cost in ns.
func (d *Device) latency(kind Kind, pattern Pattern) float64 {
	if pattern == Sequential {
		return float64(d.Spec.SeqOverhead)
	}
	if kind == Read {
		return float64(d.Spec.ReadLatency)
	}
	return float64(d.Spec.WriteLatency)
}

// StreamRate returns the per-thread transfer bandwidth in bytes/ns for
// the given kind and pattern, reduced by any active throttle derate.
func (d *Device) StreamRate(kind Kind, pattern Pattern) float64 {
	r := d.Spec.Stream[kind]
	if pattern == Random {
		r = d.Spec.StreamRand[kind]
	}
	if f := d.Derate(); f != 1 {
		r *= f
	}
	return r
}

// AccessTime returns the time in ns one thread needs for a single access of
// size bytes, ignoring aggregate contention (see Throughput for that).
func (d *Device) AccessTime(kind Kind, pattern Pattern, size int64) float64 {
	media := float64(d.MediaBytes(size))
	return d.latency(kind, pattern) + media/d.StreamRate(kind, pattern)
}

// PerThread returns single-thread throughput in bytes/ns for blockSize
// accesses of the given kind and pattern. Throughput counts application
// bytes, not media bytes: an 8 B random NVM access still moves 256 B of
// media, so small accesses see heavily deflated throughput (Figure 2).
func (d *Device) PerThread(kind Kind, pattern Pattern, blockSize int64) float64 {
	if blockSize <= 0 {
		return 0
	}
	t := d.AccessTime(kind, pattern, blockSize)
	// Large random blocks converge to sequential streaming (the block is
	// internally contiguous), mirroring PeakFor's blending.
	if pattern == Random {
		const blend = 16 * 1024
		w := float64(blockSize) / (float64(blockSize) + blend)
		seq := d.AccessTime(kind, Sequential, blockSize)
		t = t*(1-w) + seq*w
	}
	return float64(blockSize) / t
}

// Throughput returns aggregate application-byte throughput in bytes/ns for
// threads concurrent threads issuing blockSize accesses. It is the model
// behind Figures 1 and 2: linear per-thread scaling clipped by the
// per-(kind,pattern) device ceiling, with the ceiling itself deflated by
// media-granularity waste for small blocks.
func (d *Device) Throughput(kind Kind, pattern Pattern, blockSize int64, threads int) float64 {
	if threads <= 0 || blockSize <= 0 {
		return 0
	}
	per := d.PerThread(kind, pattern, blockSize)
	amp := float64(blockSize) / float64(d.MediaBytes(blockSize))
	peak := d.PeakFor(kind, pattern, blockSize) * amp
	agg := per * float64(threads)
	if agg > peak {
		return peak
	}
	return agg
}

// PeakFor returns the aggregate media-byte ceiling for accesses of the
// given block size. A large "random" access is internally a sequential
// burst, so the random ceiling converges toward the sequential one as the
// block size grows (visible in the paper's Figure 2, where the seq/rand
// gap closes with size).
func (d *Device) PeakFor(kind Kind, pattern Pattern, blockSize int64) float64 {
	p := d.Spec.Peak[kind][pattern]
	if pattern == Random {
		const blend = 16 * 1024 // bytes at which random is half-way to seq
		w := float64(blockSize) / (float64(blockSize) + blend)
		p += (d.Spec.Peak[kind][Sequential] - p) * w
	}
	if f := d.Derate(); f != 1 {
		p *= f
	}
	return p
}

// EffectiveBandwidth returns the media-byte bandwidth ceiling for the given
// kind and pattern in bytes/ns; the machine's contention solver divides
// this among all consumers (application accesses plus migrations).
func (d *Device) EffectiveBandwidth(kind Kind, pattern Pattern) float64 {
	p := d.Spec.Peak[kind][pattern]
	if f := d.Derate(); f != 1 {
		p *= f
	}
	return p
}

// Record charges traffic to the device's wear counters. size is in
// application bytes per op; ops may be fractional (analytic quanta).
func (d *Device) Record(kind Kind, size int64, ops float64) {
	media := float64(d.MediaBytes(size)) * ops
	if kind == Read {
		d.wear.ReadBytes += media
		d.wear.ReadOps += ops
	} else {
		d.wear.WriteBytes += media
		d.wear.WriteOps += ops
	}
}

// RecordBytes charges raw media-byte traffic (used by migrations, which
// stream at media granularity already).
func (d *Device) RecordBytes(kind Kind, bytes float64) {
	if kind == Read {
		d.wear.ReadBytes += bytes
	} else {
		d.wear.WriteBytes += bytes
	}
}

// Wear returns a copy of the device's wear counters.
func (d *Device) Wear() Wear { return d.wear }

// ResetWear zeroes the wear counters (used between benchmark phases).
func (d *Device) ResetWear() { d.wear = Wear{} }

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%d GB)", d.Spec.Name, d.Spec.Capacity/sim.GB)
}
