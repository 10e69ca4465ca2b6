//go:build race

package bench

// raceEnabled reports whether the race detector instruments this build.
// Under it, the tests over experiment outputs run only the cheap golden
// rows (see skipSlow; several of them run on 8 sweep workers, which keeps
// the sweep engine race-covered) and the tracker chaos runs skip: they check values, which
// instrumentation cannot change, and would push the race gate past its
// time budget.
const raceEnabled = true
