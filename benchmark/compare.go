package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runCompare reads two sets of invocations — each file holds one or more
// results.json objects, concatenated — and prints, for every workload ×
// metric both report, each side's median and quartiles over invocations
// and one verdict. It exits 1 when an end-to-end metric got worse.
func runCompare(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	change, err := loadResults(changePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "base %s: %d invocations; change %s: %d invocations\n", basePath, len(base), changePath, len(change))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase q1\tbase q3\tchange median\tchange q1\tchange q3\tverdict\t")
	code := 0
	for _, w := range workloads {
		for _, d := range metricDefs {
			a, b := series(base, w.name, d.Name), series(change, w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(d, a, b)
			if v == "worse" && d.E2E {
				code = 1
			}
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%s\t\n",
				w.name, d.Name, median(a), a1, a3, median(b), b1, b3, v)
		}
	}
	tw.Flush()
	return code
}

// loadResults decodes every results object in a file.
func loadResults(path string) ([]resultsFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultsFile
	dec := json.NewDecoder(f)
	for {
		var r resultsFile
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// series is one value per invocation, in file order.
func series(rs []resultsFile, workload, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		for _, w := range r.Workloads {
			if v, ok := w.Metrics[metric]; ok && w.Name == workload {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// verdict applies the rules for comparing a change (b) with its base (a):
//   - better: every change run reads better than every base run, or the
//     change wins at least nine tenths of the pairs run and the medians
//     differ by more than the base's spread (the distance between its
//     quartiles);
//   - unresolved: the base's spread, as a share of its median, is wider
//     than the metric's bound;
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - within bound: none of these.
//
// Exact metrics have a bound of zero. Per-layer timings have none: they
// read better or worse only by the pairs rule, within bound when the
// medians are equal, and unresolved otherwise.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	isBetter := func(x, y float64) bool {
		if d.Better == higher {
			return x > y
		}
		return x < y
	}
	dominates := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !isBetter(x, y) {
					return false
				}
			}
		}
		return true
	}
	pairsRule := func(xs, ys []float64) bool {
		n := min(len(xs), len(ys))
		wins := 0
		for i := 0; i < n; i++ {
			if isBetter(xs[i], ys[i]) {
				wins++
			}
		}
		mx, my := median(xs), median(ys)
		return float64(wins) >= 0.9*float64(n) && isBetter(mx, my) && math.Abs(mx-my) > q3-q1
	}
	if dominates(b, a) {
		return "better"
	}
	bound := d.Bound
	switch {
	case d.Exact:
		bound = 0
	case !d.E2E:
		switch {
		case pairsRule(b, a):
			return "better"
		case pairsRule(a, b):
			return "worse"
		case ma == mb:
			return "within bound"
		}
		return "unresolved"
	}
	// worseBy is how much worse the change's median is, as a share of the
	// base's; a zero base makes any change infinite.
	var worseBy float64
	switch {
	case ma == mb:
	case ma == 0 && isBetter(mb, ma):
		worseBy = math.Inf(-1)
	case ma == 0:
		worseBy = math.Inf(1)
	default:
		worseBy = (mb - ma) / math.Abs(ma)
		if d.Better == higher {
			worseBy = -worseBy
		}
	}
	switch {
	case ma != 0 && (q3-q1)/math.Abs(ma) > bound && !d.Exact:
		return "unresolved"
	case worseBy > bound:
		return "worse"
	case pairsRule(b, a):
		return "better"
	}
	return "within bound"
}
