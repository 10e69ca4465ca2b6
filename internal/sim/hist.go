package sim

import (
	"fmt"
	"math"
	"sort"
)

// Histogram records latency observations in log-spaced buckets and answers
// percentile queries. It mirrors what the FlexKVS latency experiments in
// the paper (Tables 3 and 4) report: p50/p90/p99/p99.9.
//
// Buckets are spaced at ~2% relative resolution, which is far finer than
// the differences the paper reports.
type Histogram struct {
	counts []uint64
	total  uint64
	min    float64
	max    float64
	sum    float64
}

const (
	histBucketsPerOctave = 36 // ~2% resolution
	histBuckets          = 64 * histBucketsPerOctave
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.Inf(1), max: math.Inf(-1)}
}

// histBucket maps v to its bucket, floor(Log2(v)·36): values below 1
// (and NaN) to the first, values past the top octave (and +Inf) to the
// last. It returns exactly what histBucketLog2 returns, without the
// logarithm: the float's exponent picks the octave and its mantissa
// m ∈ [1, 2) is placed among the octave's bucket boundaries 2^(k/36).
// Where m lies within histGuard of a boundary, the rounding of
// histBucketLog2 decides, so that path runs it instead.
func histBucket(v float64) int {
	if !(v >= 1) {
		return 0
	}
	bits := math.Float64bits(v)
	octave := int(bits>>52) - 1023 // v ∈ [2^octave, 2^(octave+1))
	if octave >= 64 {
		return histBuckets - 1 // includes +Inf
	}
	m := math.Float64frombits(bits&(1<<52-1) | 1023<<52)
	k := int(histOctaveStart[bits>>46&63])
	if m >= histOctaveBounds[k+1] {
		k++
	}
	if m-histOctaveBounds[k] < histGuard || histOctaveBounds[k+1]-m < histGuard {
		return histBucketLog2(v)
	}
	return octave*histBucketsPerOctave + k
}

// histBucketLog2 is the defining form of histBucket. The top clamp is
// done in float because converting +Inf to int is undefined in Go.
func histBucketLog2(v float64) int {
	if !(v >= 1) {
		return 0
	}
	if f := math.Log2(v) * histBucketsPerOctave; f < histBuckets {
		return int(f)
	}
	return histBuckets - 1
}

// histGuard is the distance from a bucket boundary, in mantissa units,
// within which histBucket defers to histBucketLog2. Log2(v)·36 carries
// an absolute error far below 1e-11 for v < 2^64, which moves a
// boundary by under 1e-12 in the mantissa; the guard leaves a wide
// margin over that and over histOctaveBounds' own rounding.
const histGuard = 1e-10

// histOctaveBounds[k] is the k-th bucket boundary 2^(k/36) of an octave's
// mantissa; histOctaveBounds[36] is 2.
var histOctaveBounds = func() (b [histBucketsPerOctave + 1]float64) {
	for k := range b {
		b[k] = math.Exp2(float64(k) / histBucketsPerOctave)
	}
	return b
}()

// histOctaveStart[j] is the bucket of mantissa 1 + j/64, the low end of
// the j-th 64th of an octave. A 64th (0.0156) is narrower than the
// narrowest bucket (2^(1/36) − 1 ≈ 0.0194), so a mantissa lies in
// bucket histOctaveStart[j] or the next one.
var histOctaveStart = func() (s [64]uint8) {
	k := 0
	for j := range s {
		for histOctaveBounds[k+1] <= 1+float64(j)/64 {
			k++
		}
		s[j] = uint8(k)
	}
	return s
}()

func histBucketValue(b int) float64 {
	return math.Exp2((float64(b) + 0.5) / histBucketsPerOctave)
}

// Observe records one observation of value v (e.g., a latency in
// nanoseconds). Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations; the simulator uses this to
// record whole batches of operations that share an analytic latency.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)] += n
	h.total += n
	h.sum += v * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the value at quantile q in [0,1]. Results interpolate
// bucket midpoints; exact min/max are returned at the extremes.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.total))
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			return h.clamp(histBucketValue(b))
		}
	}
	return h.max
}

// clamp bounds a bucket-midpoint estimate by the exact observed extremes so
// quantiles are monotone in q.
func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Merge adds other's observations into h. Buckets are fixed and shared
// across all histograms, so the merge is exact: quantiles of the merged
// histogram equal quantiles of the pooled observations (at bucket
// resolution). The fleet experiment aggregates per-class latency across
// machines this way.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%.0f p90=%.0f p99=%.0f p999=%.0f",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999))
}

// Series records a value over simulated time, e.g., instantaneous GUPS for
// Figure 9 or per-iteration NVM writes for Figure 16.
type Series struct {
	Name   string
	Times  []int64
	Values []float64
}

// Append adds a point. Times are expected to be non-decreasing.
func (s *Series) Append(t int64, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// At returns the value at the greatest recorded time <= t, or 0 if none.
func (s *Series) At(t int64) float64 {
	i := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t })
	if i == 0 {
		return 0
	}
	return s.Values[i-1]
}

// Mean returns the average of all recorded values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}
