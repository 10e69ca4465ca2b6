package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random number generator based
// on splitmix64. It is not safe for concurrent use; the simulator is
// single-threaded by design, and each component that needs randomness holds
// its own Rand derived from the experiment seed so that adding a component
// never perturbs the random stream of another.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent generator from r, keyed by label. The
// derived stream is stable: it depends only on r's seed history and label.
// Split consumes one value from r's stream, so successive Split calls
// with the same label yield distinct streams.
func (r *Rand) Split(label uint64) *Rand {
	return NewRand(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Poisson draws from a Poisson distribution with mean lambda, using
// Knuth's method for small lambda and a normal approximation for large.
func (r *Rand) Poisson(lambda float64) int {
	return r.PoissonCached(NewPoissonPrep(lambda))
}

// PoissonPrep caches the λ-dependent constants of a Poisson draw —
// exp(-λ) for the Knuth path, sqrt(λ) for the normal approximation — so
// callers that sample the same mean repeatedly (the chaos scheduler's
// correctable-error count, drawn every quantum of a storm) don't pay a
// transcendental per draw. NewPoissonPrep(λ) followed by
// Rand.PoissonCached is bit-compatible with Rand.Poisson(λ): the cached
// constants are the exact float64s Poisson computed inline, and the RNG
// draw sequence is unchanged, so seeded results are identical.
type PoissonPrep struct {
	// Lambda is the distribution mean.
	Lambda float64
	// ExpNegLambda is exp(-Lambda); meaningful only for 0 < Lambda ≤ 30
	// (the Knuth path).
	ExpNegLambda float64
	// SqrtLambda is sqrt(Lambda); meaningful only for Lambda > 30 (the
	// normal-approximation path).
	SqrtLambda float64
}

// NewPoissonPrep precomputes the draw constants for mean lambda.
func NewPoissonPrep(lambda float64) PoissonPrep {
	p := PoissonPrep{Lambda: lambda}
	switch {
	case lambda <= 0:
	case lambda > 30:
		p.SqrtLambda = math.Sqrt(lambda)
	default:
		p.ExpNegLambda = math.Exp(-lambda)
	}
	return p
}

// PoissonCached draws from a Poisson distribution whose constants were
// precomputed by NewPoissonPrep. The draw sequence and arithmetic match
// Poisson(prep.Lambda) bit for bit.
func (r *Rand) PoissonCached(prep PoissonPrep) int {
	lambda := prep.Lambda
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		u1, u2 := r.Float64(), r.Float64()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		n := int(lambda + z*prep.SqrtLambda + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := prep.ExpNegLambda
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s > 0
// using inverse-CDF approximation. It is used by the key-value store driver
// to model skewed key popularity.
type Zipf struct {
	r    *Rand
	n    int64
	s    float64
	hInt float64 // integral-based normalizer H(n)
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s (s != 1 is
// handled via the generalized harmonic integral approximation).
func NewZipf(r *Rand, n int64, s float64) *Zipf {
	z := &Zipf{r: r, n: n, s: s}
	z.hInt = z.h(float64(n) + 0.5)
	return z
}

// h is the antiderivative of x^-s, shifted so h(0.5) == 0.
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x) - math.Log(0.5)
	}
	e := 1 - z.s
	return (math.Pow(x, e) - math.Pow(0.5, e)) / e
}

// hInv inverts h.
func (z *Zipf) hInv(y float64) float64 {
	if z.s == 1 {
		return 0.5 * math.Exp(y)
	}
	e := 1 - z.s
	return math.Pow(y*e+math.Pow(0.5, e), 1/e)
}

// Next draws the next sample in [0, n), where 0 is the most popular rank.
func (z *Zipf) Next() int64 {
	u := z.r.Float64() * z.hInt
	x := int64(z.hInv(u)+0.5) - 1
	if x < 0 {
		x = 0
	}
	if x >= z.n {
		x = z.n - 1
	}
	return x
}
