// Command benchmark measures the HeMem simulator end to end and layer by
// layer on five workloads, and compares two sets of its results. See
// README.md for how to run it and what each number means.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

const (
	// minReps is the fewest untraced repetitions a workload gets, however
	// long they take; more run while the measuring time lasts.
	minReps = 3
	// childTimeout bounds one repetition's process.
	childTimeout = 60 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all, one after another)")
	seed := fs.Uint64("seed", 17, "seed of every workload's inputs")
	seconds := fs.Int("seconds", 10, "seconds of repetitions measured per workload")
	trace := fs.Int("trace", 0, "1: add a traced repetition and report the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: base, then change")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for results.json and span traces")
	child := fs.String("child", "", "run one repetition of this workload in this process (used by the benchmark itself)")
	traced := fs.Bool("traced", false, "with -child: trace the repetition")
	launch := fs.Int64("launch-ns", 0, "with -child: when the parent launched this process, in Unix ns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare BASE.json CHANGE.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *child != "" {
		return runChild(*child, *seed, *traced, *launch, *out, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "-trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "-seconds must be at least 1, not %d\n", *seconds)
		return 2
	}
	sel := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q; valid: %s\n", *only, strings.Join(workloadNames(), ", "))
			return 2
		}
		sel = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "locating the benchmark binary:", err)
		return 1
	}
	cfg := runConfig{self: self, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res := resultsFile{
		Schema: 1, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	for _, w := range sel {
		fmt.Fprintf(stderr, "benchmark: %s\n", w.name)
		res.Workloads = append(res.Workloads, measure(cfg, w, stderr))
	}
	if err := writeResults(filepath.Join(cfg.out, "results.json"), res); err != nil {
		fmt.Fprintln(stderr, "writing results:", err)
		return 1
	}
	printTable(stdout, res)
	if err := printSummary(stdout, res); err != nil {
		fmt.Fprintln(stderr, "printing the summary:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type runConfig struct {
	self    string
	seed    uint64
	seconds int
	trace   bool
	out     string
}

// repResult is what one repetition reports: its process prints it as its
// last line of standard output.
type repResult struct {
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Digest   string             `json:"digest"`
	Error    string             `json:"error,omitempty"`
	SetupS   float64            `json:"setup_s"`
	HostS    float64            `json:"host_s"`
	SimNS    int64              `json:"sim_ns"`
	Metrics  map[string]float64 `json:"metrics"`
	// PeakRSSMiB is the repetition process's peak resident set.
	PeakRSSMiB float64 `json:"peak_rss_mib,omitempty"`
}

// runRep runs one repetition in this process, traced when tr is non-nil.
// Panics (the invariant auditor's, for one) become the repetition's
// error.
func runRep(w workload, seed uint64, sz sizes, tr *tracer, setupDone func()) (res repResult) {
	res = repResult{Workload: w.name, Traced: tr != nil, Metrics: map[string]float64{}}
	r := &rep{seed: seed, sizes: sz, tr: tr, setupDone: setupDone}
	defer func() {
		if p := recover(); p != nil {
			res.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	o, err := w.run(r)
	if err != nil {
		res.Error = err.Error()
	}
	res.Digest = digestOf(o.digest)
	res.HostS = float64(r.hostNS) / 1e9
	res.SimNS = o.simNS
	for k, v := range o.metrics {
		res.Metrics[k] = v
	}
	if o.simNS > 0 {
		res.Metrics["go.alloc_mib_per_sim_s"] = float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20) / (float64(o.simNS) / 1e9)
	}
	res.Metrics["go.gc_cycles"] = float64(r.mem1.NumGC - r.mem0.NumGC)
	res.Metrics["go.gc_pause_s"] = float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e9
	if tr != nil {
		tr.metrics(res.Metrics)
	}
	return res
}

// runChild is one repetition in its own process. Set-up is timed from the
// parent's launch, so it includes starting the process.
func runChild(name string, seed uint64, traced bool, launchNS int64, out string, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", name)
		return 2
	}
	var tr *tracer
	if traced {
		tr = newTracer(seed)
	}
	var setup float64
	res := runRep(w, seed, benchSizes, tr, func() {
		setup = float64(time.Now().UnixNano()-launchNS) / 1e9
	})
	res.SetupS = setup
	if rss, err := peakRSSMiB(); err != nil {
		res.Error = "reading peak RSS: " + err.Error()
	} else {
		res.PeakRSSMiB = rss
	}
	if tr != nil && tr.steps > 0 && res.Error == "" {
		if err := tr.writeSpans(filepath.Join(out, name+".trace.json"), name, seed); err != nil {
			res.Error = "writing spans: " + err.Error()
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// spawn runs one repetition in a child process and waits for it.
func spawn(cfg runConfig, name string, traced bool, stderr io.Writer) repResult {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, cfg.self,
		"-child", name, "-seed", strconv.FormatUint(cfg.seed, 10), "-out", cfg.out,
		"-traced="+strconv.FormatBool(traced), "-launch-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	res := repResult{Workload: name, Traced: traced}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		res.Error = "repetition printed no result"
	}
	if err != nil {
		res.Error = strings.TrimSpace(res.Error + "; repetition process: " + err.Error())
	}
	return res
}

// peakRSSMiB reads this process's peak resident set (VmHWM) from procfs.
// The rusage maximum will not do for a child process: when the parent
// starts it with vfork, the child inherits the parent's high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resultsFile is one invocation's results, as written to results.json and
// read back by -compare.
type resultsFile struct {
	Schema    int              `json:"schema"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	NumCPU    int              `json:"num_cpu"`
	GoVersion string           `json:"go_version"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	// Digest is the outcome every repetition must reproduce: the most
	// common digest among the untraced repetitions.
	Digest       string                 `json:"digest"`
	Digests      []string               `json:"digests"`
	TracedDigest string                 `json:"traced_digest,omitempty"`
	Errors       []string               `json:"errors,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
}

// metricValue is a metric's median over repetitions with its quartiles.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// measure runs a workload's repetitions, one process at a time, for the
// configured time, then the traced repetition if asked.
func measure(cfg runConfig, w workload, stderr io.Writer) workloadResult {
	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		reps = append(reps, spawn(cfg, w.name, false, stderr))
	}
	var traced *repResult
	if cfg.trace {
		t := spawn(cfg, w.name, true, stderr)
		traced = &t
	}
	return summarize(w.name, reps, traced)
}

// summarize checks the repetitions against each other and reduces them to
// medians. A repetition fails if it reported an error or panic, or if its
// digest differs from the reference; the traced repetition must match it
// too.
func summarize(name string, reps []repResult, traced *repResult) workloadResult {
	res := workloadResult{Name: name, Metrics: map[string]metricValue{}}
	count := map[string]int{}
	for _, r := range reps {
		res.Digests = append(res.Digests, r.Digest)
		if r.Error != "" {
			continue
		}
		count[r.Digest]++
		if count[r.Digest] > count[res.Digest] {
			res.Digest = r.Digest
		}
	}
	var good []repResult
	check := func(r repResult) bool {
		res.Attempted++
		switch {
		case r.Error != "":
			res.Errors = append(res.Errors, r.Error)
		case r.Digest != res.Digest:
			res.Errors = append(res.Errors, fmt.Sprintf("digest %s differs from %s", r.Digest, res.Digest))
		default:
			return true
		}
		res.Failed++
		return false
	}
	for _, r := range reps {
		if check(r) {
			good = append(good, r)
		}
	}
	tracedOK := false
	if traced != nil {
		res.TracedDigest = traced.Digest
		tracedOK = check(*traced)
	}
	res.Correct = res.Failed == 0 && len(good) > 0
	if len(good) == 0 {
		return res
	}

	put := func(name string, samples []float64) {
		d, ok := metricByName[name]
		if !ok {
			return
		}
		q1, q3 := quartiles(samples)
		res.Metrics[name] = metricValue{Value: median(samples), Unit: d.Unit, Q1: q1, Q3: q3, Samples: samples}
	}
	var speed, setup, rss, host []float64
	perLayer := map[string][]float64{}
	for _, r := range good {
		speed = append(speed, float64(r.SimNS)/r.HostS)
		setup = append(setup, r.SetupS)
		rss = append(rss, r.PeakRSSMiB)
		host = append(host, r.HostS)
		for k, v := range r.Metrics {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	put("sim_ns_per_host_s", speed)
	put("setup_s", setup)
	put("peak_rss_mib", rss)
	for k, v := range perLayer {
		put(k, v)
	}
	if tracedOK {
		// Counters come from the untraced repetitions; the traced one adds
		// only what tracing measures.
		for k, v := range traced.Metrics {
			if _, ok := res.Metrics[k]; !ok {
				put(k, []float64{v})
			}
		}
		put("trace.overhead_frac", []float64{traced.HostS/median(host) - 1})
	}
	return res
}

func writeResults(path string, res resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric by name and unit.
func printTable(w io.Writer, res resultsFile) {
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s: %d repetitions, %d failed, digest %s", wr.Name, wr.Attempted, wr.Failed, wr.Digest)
		if wr.TracedDigest != "" {
			fmt.Fprintf(w, ", traced digest %s", wr.TracedDigest)
		}
		fmt.Fprintln(w)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  FAILED: %s\n", e)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tmedian\tq1\tq3\tunit\t")
		for _, d := range metricDefs {
			if v, ok := wr.Metrics[d.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.4g\t%.4g\t%.4g\t%s\t\n", d.Name, v.Value, v.Q1, v.Q3, d.Unit)
			}
		}
		tw.Flush()
		if top, share := topLayer(wr); top != "" {
			fmt.Fprintf(w, "  top layer by step host time: %s (%.1f%%)\n", top, 100*share)
		}
	}
}

// topLayer names the manager callback layer with the largest share of
// traced step time; the rest of the step is the machine's self time.
func topLayer(wr workloadResult) (string, float64) {
	var top string
	var best float64
	for _, l := range layerNames {
		if v, ok := wr.Metrics[l+".share"]; ok && v.Value > best {
			top, best = l, v.Value
		}
	}
	return top, best
}

// printSummary prints the one-line result, last on standard output: for
// one workload the end-to-end metrics (untraced) or every per-layer
// metric, absent layers as 0 (traced); for several, every metric present
// under workload/metric.
func printSummary(w io.Writer, res resultsFile) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, wr := range res.Workloads {
		sum.Correct = sum.Correct && wr.Correct
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		for _, d := range metricDefs {
			v, ok := wr.Metrics[d.Name]
			switch {
			case len(res.Workloads) > 1:
				if ok {
					sum.Metrics[wr.Name+"/"+d.Name] = value{v.Value, d.Unit}
				}
			case res.Trace && !d.E2E:
				sum.Metrics[d.Name] = value{v.Value, d.Unit}
			case !res.Trace && d.E2E && ok:
				sum.Metrics[d.Name] = value{v.Value, d.Unit}
			}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
