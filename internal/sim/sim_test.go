package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(5 * Millisecond)
	c.Advance(0)
	if got := c.Now(); got != 5*Millisecond {
		t.Fatalf("Now() = %d, want %d", got, 5*Millisecond)
	}
}

func TestClockPanicsOnBackwards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	q.Schedule(30, func(int64) { fired = append(fired, 3) })
	q.Schedule(10, func(int64) { fired = append(fired, 1) })
	q.Schedule(20, func(int64) { fired = append(fired, 2) })
	// Same deadline: FIFO within the deadline.
	q.Schedule(20, func(int64) { fired = append(fired, 22) })

	q.RunDue(20)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 22 {
		t.Fatalf("fired = %v, want [1 2 22]", fired)
	}
	q.RunDue(100)
	if len(fired) != 4 || fired[3] != 3 {
		t.Fatalf("fired = %v, want trailing 3", fired)
	}
}

func TestEventQueueReschedulingWithinRun(t *testing.T) {
	q := NewEventQueue()
	var n int
	var reschedule func(now int64)
	reschedule = func(now int64) {
		n++
		if n < 5 {
			q.Schedule(now+10, reschedule)
		}
	}
	q.Schedule(0, reschedule)
	q.RunDue(100)
	if n != 5 {
		t.Fatalf("periodic event fired %d times, want 5", n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandIntnUniformish(t *testing.T) {
	r := NewRand(3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, draws/n)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandBernoulliEdges(t *testing.T) {
	r := NewRand(9)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); math.Abs(got-500) > 25 {
		t.Fatalf("p50 = %v, want ~500", got)
	}
	if got := h.Quantile(0.99); math.Abs(got-990) > 50 {
		t.Fatalf("p99 = %v, want ~990", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("max = %v, want 1000", got)
	}
	if got := h.Mean(); math.Abs(got-500.5) > 0.01 {
		t.Fatalf("mean = %v, want 500.5", got)
	}
}

func TestHistogramObserveNEquivalence(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Observe(123)
	}
	b.ObserveN(123, 100)
	if a.Count() != b.Count() || a.Quantile(0.5) != b.Quantile(0.5) {
		t.Fatal("ObserveN(v, n) != n×Observe(v)")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

// Property: quantile is monotone in q.
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(float64(v))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram buckets have bounded relative error.
func TestHistogramRelativeError(t *testing.T) {
	f := func(raw uint32) bool {
		v := float64(raw%1_000_000) + 1
		h := NewHistogram()
		h.Observe(v)
		got := h.Quantile(0.5)
		return math.Abs(got-v)/v < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// +Inf lands in the top bucket, not the bottom one: a histogram whose
// observations are mostly +Inf must report a median past every finite
// bucket. Finite values keep their buckets.
func TestHistogramQuantileInf(t *testing.T) {
	h := NewHistogram()
	h.Observe(100)
	h.ObserveN(math.Inf(1), 99)
	top := histBucketValue(histBuckets - 1)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := h.Quantile(q); got < top {
			t.Fatalf("Quantile(%v) with 99%% +Inf observations = %v, want >= top bucket %v", q, got, top)
		}
	}
	if got := h.Quantile(0.001); math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("Quantile(0.001) = %v, want about the finite observation 100", got)
	}
	for _, c := range []struct {
		v    float64
		want int
	}{
		{math.Inf(1), histBuckets - 1},
		{1e300, histBuckets - 1},
		{math.MaxFloat64, histBuckets - 1},
		{math.NaN(), 0},
		{-5, 0},
		{0.5, 0},
		{1, 0},
		{2, histBucketsPerOctave},
		{1 << 20, 20 * histBucketsPerOctave},
	} {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(10, 1.0)
	s.Append(20, 2.0)
	s.Append(30, 3.0)
	if got := s.At(25); got != 2.0 {
		t.Fatalf("At(25) = %v, want 2", got)
	}
	if got := s.At(5); got != 0 {
		t.Fatalf("At(5) = %v, want 0", got)
	}
	if got := s.At(30); got != 3.0 {
		t.Fatalf("At(30) = %v, want 3", got)
	}
	if got := s.Mean(); got != 2.0 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestUnits(t *testing.T) {
	if GB != 1<<30 || TB != 1024*GB {
		t.Fatal("unit constants wrong")
	}
	// 1 GB/s is ~1.07 bytes/ns.
	bpns := GBps(1)
	if math.Abs(bpns-1.0737) > 0.01 {
		t.Fatalf("GBps(1) = %v", bpns)
	}
	if math.Abs(BytesPerNsToGBps(bpns)-1) > 1e-9 {
		t.Fatal("GBps round trip failed")
	}
}

// poissonInline replicates the pre-memoization Poisson draw, with the
// transcendentals computed inline on every call. PoissonCached must
// reproduce it bit for bit: same results, same RNG consumption.
func poissonInline(r *Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		u1, u2 := r.Float64(), r.Float64()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		n := int(lambda + z*math.Sqrt(lambda) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func TestPoissonPrepConstantsExact(t *testing.T) {
	for _, lambda := range []float64{1e-9, 0.001, 0.1, 0.5, 1, 2.5, 7, 29.999, 30} {
		prep := NewPoissonPrep(lambda)
		if want := math.Exp(-lambda); prep.ExpNegLambda != want {
			t.Fatalf("λ=%v: ExpNegLambda = %x, want %x (math.Exp)",
				lambda, math.Float64bits(prep.ExpNegLambda), math.Float64bits(want))
		}
	}
	for _, lambda := range []float64{30.001, 100, 1e6} {
		prep := NewPoissonPrep(lambda)
		if want := math.Sqrt(lambda); prep.SqrtLambda != want {
			t.Fatalf("λ=%v: SqrtLambda = %x, want %x (math.Sqrt)",
				lambda, math.Float64bits(prep.SqrtLambda), math.Float64bits(want))
		}
	}
}

func TestPoissonCachedBitIdentical(t *testing.T) {
	lambdas := []float64{-3, 0, 1e-6, 0.25, 1, 3.75, 29.5, 30, 30.5, 500}
	for _, lambda := range lambdas {
		prep := NewPoissonPrep(lambda)
		ra, rb, rc := NewRand(42), NewRand(42), NewRand(42)
		for i := 0; i < 5000; i++ {
			want := poissonInline(ra, lambda)
			if got := rb.PoissonCached(prep); got != want {
				t.Fatalf("λ=%v draw %d: PoissonCached = %d, want %d", lambda, i, got, want)
			}
			if got := rc.Poisson(lambda); got != want {
				t.Fatalf("λ=%v draw %d: Poisson = %d, want %d", lambda, i, got, want)
			}
		}
		// Identical results could still hide divergent RNG consumption;
		// the streams must be in lock-step afterwards.
		if a, b, c := ra.Uint64(), rb.Uint64(), rc.Uint64(); a != b || a != c {
			t.Fatalf("λ=%v: RNG states diverged after draws (%x, %x, %x)", lambda, a, b, c)
		}
	}
}
