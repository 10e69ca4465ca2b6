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
