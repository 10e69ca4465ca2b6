package memmode

import (
	"math"
	"testing"

	"github.com/tieredmem/hemem/internal/sim"
)

// mixRow is one zone of a test mix: per-line rate r, expected lines per
// cache set λ, dirty fraction d.
type mixRow struct{ r, lambda, d float64 }

// solveMix evaluates the closed form on a mix and returns the rows, whose
// zones carry the resulting hit and wb.
func solveMix(mix []mixRow) []zoneModel {
	zs := make([]zoneModel, len(mix))
	for i, m := range mix {
		zs[i] = zoneModel{z: &zone{}, perLine: m.r, dirty: m.d, lambda: m.lambda}
	}
	closedForm(zs)
	return zs
}

// poissonExact draws an exact Poisson(λ) variate: Knuth's product-of-
// uniforms method on pieces of mean at most 20, summed (a sum of
// independent Poissons is Poisson), so no normal approximation enters.
func poissonExact(rng *sim.Rand, lambda float64) int {
	n := 0
	for lambda > 0 {
		piece := min(lambda, 20)
		lambda -= piece
		l, p := math.Exp(-piece), 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				break
			}
			n++
		}
	}
	return n
}

// mcEstimate is a Monte-Carlo estimate of one target's hit rate and
// writeback expectation, with the standard errors of both (the writeback
// one by the delta method for a ratio of means).
type mcEstimate struct{ hit, hitSE, wb, wbSE float64 }

// monteCarlo estimates every target of a mix from the same seeded,
// exactly drawn set compositions.
func monteCarlo(mix []mixRow, samples int, seed uint64) []mcEstimate {
	rng := sim.NewRand(seed)
	// Per target: Σh, Σh², Σnum, Σmiss, Σnum², Σmiss², Σnum·miss.
	sums := make([][7]float64, len(mix))
	for s := 0; s < samples; s++ {
		var c, dirty float64
		for _, m := range mix {
			k := float64(poissonExact(rng, m.lambda))
			c += k * m.r
			dirty += k * m.r * m.d
		}
		for i, m := range mix {
			h, num, miss := m.r/(m.r+c), dirty/(m.r+c), c/(m.r+c)
			p := &sums[i]
			p[0] += h
			p[1] += h * h
			p[2] += num
			p[3] += miss
			p[4] += num * num
			p[5] += miss * miss
			p[6] += num * miss
		}
	}
	n := float64(samples)
	est := make([]mcEstimate, len(mix))
	for i, p := range sums {
		e := &est[i]
		e.hit = p[0] / n
		e.hitSE = math.Sqrt(max(p[1]/n-e.hit*e.hit, 0) / n)
		if p[3] > 0 {
			e.wb = p[2] / p[3]
			mn, mm := p[2]/n, p[3]/n
			// Var(num − wb·miss) over samples, scaled by the mean miss.
			v := p[4]/n - mn*mn - 2*e.wb*(p[6]/n-mn*mm) + e.wb*e.wb*(p[5]/n-mm*mm)
			e.wbSE = math.Sqrt(max(v, 0)/n) / mm
		}
	}
	return est
}

// closedFormMixes are the zone mixes the closed form is checked on. Each
// Monte-Carlo sample size keeps the writeback's standard error under
// 2.5e-4, so 3-decimal agreement is a 4-standard-error test too.
var closedFormMixes = []struct {
	name    string
	samples int
	mix     []mixRow
}{
	{"single zone", 200_000, []mixRow{{r: 1, lambda: 0.7, d: 0.5}}},
	// A competitor a million times faster than the slow target: the
	// quadrature grid must start at the fastest rate's scale. Taken from
	// the target's own rate, the fast zone's whole contribution would fall
	// into the head below the grid and the slow target's writeback would
	// come out far too low.
	{"fast competitor", 800_000, []mixRow{
		{r: 1e-2, lambda: 0.5, d: 0},
		{r: 1e4, lambda: 0.02, d: 1},
		{r: 1, lambda: 1.5, d: 0.3},
	}},
	{"lambda above 30", 200_000, []mixRow{
		{r: 1, lambda: 40, d: 0.2},
		{r: 3, lambda: 2, d: 0.8},
	}},
	{"four equal plus fast", 8_000_000, []mixRow{
		{r: 1, lambda: 0.5, d: 0.3},
		{r: 1, lambda: 0.5, d: 0.3},
		{r: 1, lambda: 0.5, d: 0.3},
		{r: 1, lambda: 0.5, d: 0.3},
		{r: 200, lambda: 0.05, d: 1},
	}},
	// FlexKVS-like: a small hot zone over a large cold one, plus a
	// write-heavy log.
	{"hot over cold", 800_000, []mixRow{
		{r: 50, lambda: 0.73, d: 0.1},
		{r: 0.5, lambda: 2.9, d: 0.1},
		{r: 5, lambda: 0.1, d: 1},
	}},
}

// The closed form must agree with a seeded high-sample Monte-Carlo that
// draws exact Poisson set compositions: hit rates within 4 standard
// errors, writebacks to 3 decimal places. This is the oracle for the
// model's numbers; the experiment goldens only pin them.
func TestClosedFormMatchesMonteCarlo(t *testing.T) {
	targets := 0
	for mi, c := range closedFormMixes {
		zs := solveMix(c.mix)
		ref := monteCarlo(c.mix, c.samples, uint64(mi+1))
		for ti, e := range ref {
			targets++
			hit, wb := zs[ti].z.hit, zs[ti].z.wb
			t.Logf("%s target %d: hit %.6f vs MC %.6f (%+.2f SE), wb %.6f vs MC %.6f (SE %.1e)",
				c.name, ti, hit, e.hit, (hit-e.hit)/e.hitSE, wb, e.wb, e.wbSE)
			if math.Abs(hit-e.hit) > 4*e.hitSE {
				t.Errorf("%s target %d: hit %.6f, Monte-Carlo %.6f ± %.1e", c.name, ti, hit, e.hit, e.hitSE)
			}
			if math.Abs(wb-e.wb) > 1e-3 || e.wbSE > 2.5e-4 {
				t.Errorf("%s target %d: wb %.6f, Monte-Carlo %.6f ± %.1e", c.name, ti, wb, e.wb, e.wbSE)
			}
		}
	}
	if targets < 13 {
		t.Fatalf("only %d targets checked", targets)
	}
}

// A single zone's hit rate has the exact closed form (1−e^{−λ})/λ. The
// quadrature meets it to about 1e-10; without the head term below the
// grid it would be off by up to 1e-6.
func TestClosedFormSingleZone(t *testing.T) {
	for _, lambda := range []float64{0.01, 0.33, 0.67, 1, 1.33, 5, 40} {
		for _, r := range []float64{1e-3, 1, 1e4} {
			zs := solveMix([]mixRow{{r: r, lambda: lambda}})
			want := (1 - math.Exp(-lambda)) / lambda
			if got := zs[0].z.hit; math.Abs(got-want) > 1e-9 {
				t.Errorf("λ=%v r=%v: hit %.9f, want %.9f", lambda, r, got, want)
			}
		}
	}
}

// When every zone has the same dirty fraction d, every victim writes back
// with probability d, so wb == d for every target — also past 16 zones.
func TestClosedFormUniformDirtyWriteback(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 17, 20} {
		for _, d := range []float64{0, 0.25, 1} {
			mix := make([]mixRow, n)
			for i := range mix {
				mix[i] = mixRow{r: math.Pow(3, float64(i%7)) / 10, lambda: 0.05 + 0.2*float64(i), d: d}
			}
			for ti, z := range solveMix(mix) {
				if math.Abs(z.z.wb-d) > 1e-9 {
					t.Errorf("%d zones, d=%v: target %d wb %.12f", n, d, ti, z.z.wb)
				}
			}
		}
	}
}
