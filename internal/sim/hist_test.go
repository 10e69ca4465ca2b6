package sim

import (
	"math"
	"testing"
)

// histBucket returns exactly histBucketLog2's bucket: around every one
// of the 2,304 bucket boundaries (and 2^64, where the clamp starts),
// over values below 1 and the specials, and over a seeded sweep of
// mantissas and octaves.
func TestHistBucketMatchesLog2(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := histBucket(v), histBucketLog2(v); got != want {
			t.Fatalf("histBucket(%v [%#x]) = %d, histBucketLog2 = %d", v, math.Float64bits(v), got, want)
		}
	}
	// A boundary of histBucketLog2 can sit a few dozen ulps from
	// Exp2(b/36) in the top octaves (its rounding error in Log2(v)·36
	// is below 1e-12, about 50 ulps of v there), so walk 64 ulps each
	// way.
	const ulps = 64
	for b := 0; b <= histBuckets; b++ {
		edge := math.Exp2(float64(b) / histBucketsPerOctave)
		v := edge
		for i := 0; i < ulps; i++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for i := 0; i <= 2*ulps; i++ {
			check(v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	for _, v := range []float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -0.0, 0, 5e-324, 1e-300, 0.25, 0.5,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, math.Nextafter(2, 0), 2, 3,
		math.Nextafter(1<<63, 0), 1 << 63, math.Nextafter(1<<64, 0), 1 << 64, math.Nextafter(1<<64, math.Inf(1)),
		1e300, math.MaxFloat64, math.Inf(1),
	} {
		check(v)
	}
	rng := NewRand(0x68697374)
	for i := 0; i < 1_000_000; i++ {
		switch i % 3 {
		case 0: // any mantissa in octaves -4..67
			mant := rng.Uint64() >> 12
			exp := uint64(1023 - 4 + rng.Intn(72))
			check(math.Float64frombits(exp<<52 | mant))
		case 1: // latencies as the simulator records them
			check(math.Exp(rng.Float64() * 30))
		default: // below one
			check(rng.Float64())
		}
	}
}

// BenchmarkHistBucket compares histBucket with its defining Log2 form
// over latency-like values.
func BenchmarkHistBucket(b *testing.B) {
	rng := NewRand(1)
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = math.Exp(rng.Float64() * 16)
	}
	for _, c := range []struct {
		name string
		f    func(float64) int
	}{{"frexp", histBucket}, {"log2", histBucketLog2}} {
		b.Run(c.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += c.f(vs[i&4095])
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
