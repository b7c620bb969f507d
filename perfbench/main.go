// Command perfbench is the heteromem benchmark. It drives the simulator only
// through the public functions of its packages, runs one named workload for a
// fixed host-time budget, checks the simulated output against values pinned
// in pins.go (or, on a held-out seed, against an independent path to the same
// output), and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a separate
// traced run measures the per-layer budget instead (see trace.go). Both modes
// also write a result file carrying the host fingerprint, which
// `perfbench compare` uses to refuse cross-host comparisons.
//
// Usage (normally through perfbench/run.py, which builds the binary):
//
//	perfbench --workload replay --seed 1 --seconds 10 --trace 0
//	perfbench compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the units of the end-to-end metrics an untraced run
// reports (see BENCHMARK.json for what each means and its bound).
var endToEndUnits = map[string]string{
	"records_per_s": "records/s",
	"setup_s":       "s",
	"peak_rss_mib":  "MiB",
	"eta_mae_pp":    "pp",
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides every record budget; the self-test runs at a large
	// scale so each workload finishes in well under a second. Pinned
	// digests apply only at scale 1.
	scale uint64
	root  string // checkout root, for the source fingerprint
	out   string // directory for result files and profiles ("" = none)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; inputs are generated from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of timed work to measure")
	fs.IntVar(&traced, "trace", 0, "1 = traced run printing the per-layer budget")
	fs.Uint64Var(&o.scale, "scale", 1, "divide every record budget by this (self-test)")
	fs.StringVar(&o.root, "root", ".", "checkout root (for the source fingerprint)")
	fs.StringVar(&o.out, "out", "", "directory for result files and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || o.seed < 0 || o.seconds <= 0 || o.scale == 0 || (traced != 0 && traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seed >= 0, --seconds > 0, --scale > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = traced == 1
	// The run is deterministic apart from host timing: pin the collector's
	// behaviour to the default so a GOGC in the environment cannot shift it.
	debug.SetGCPercent(100)

	ctx := context.Background()
	fp := hostFingerprint(o.root)
	fmt.Fprintf(stdout, "host: %s\n", fp)
	var res outcome
	var err error
	if o.trace {
		res, err = traceWorkload(ctx, w, o, stdout)
	} else {
		res, err = measure(ctx, w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.out != "" {
		if err := writeResult(o, fp, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printMetrics(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure is the untraced run: set-up several times, then repeat the
// workload's timed unit until the budget is spent, then check every output.
//
// records_per_s is the lower decile of the per-repetition rates. On a shared
// host the rates sit on a floor set by the host's usual contention and burst
// well above it, by up to twice, whenever the neighbours go quiet; the
// bursts last from one repetition to a minute, so a mean or a median of one
// run moves with how much of the run they covered, while the floor holds
// (see README.md). setup_s and peak_rss_mib are medians.
func measure(ctx context.Context, w *workloadDef, o options, stdout io.Writer) (outcome, error) {
	var setups []float64
	var r run
	setupStart := time.Now()
	for i := 0; i < minSetupRounds || (i < maxSetupRounds && time.Since(setupStart) < setupBudget); i++ {
		r = nil // drop the previous round's inputs before building new ones
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = w.setup(ctx, o); err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	var rates []float64
	outputs := map[string][]string{}
	res := outcome{Correct: true, Metrics: map[string]metric{}}
	var records uint64 // timed records and seconds, for the aggregate rate
	var timed float64
	units := 0 // runs or cells per repetition: what one mismatched output fails
	do := func(i int) (rate float64, ok bool) {
		start := time.Now()
		rep, err := r.rep(ctx, i)
		el := time.Since(start).Seconds()
		res.Attempted += rep.units
		res.Failed += rep.failed
		units = rep.units
		if err != nil {
			fmt.Fprintf(stdout, "rep %d: error: %v\n", i, err)
			res.Failed += rep.units - rep.failed
			return 0, false
		}
		for k, d := range rep.outputs {
			outputs[k] = append(outputs[k], d)
		}
		if i > 0 {
			records += rep.records
			timed += el
		}
		return float64(rep.records) / el, true
	}
	// Repetition 0 is an untimed warm-up: the heap grows to its working
	// size before timing starts. Its outputs are checked like the rest.
	do(0)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var peaks []float64
	for i := 1; i <= minReps || time.Now().Before(deadline); i++ {
		// Every repetition starts from the same resident set: the last
		// one's garbage collected and returned to the OS, the kernel's
		// peak restarted.
		debug.FreeOSMemory()
		resetPeakRSS()
		if rate, ok := do(i); ok {
			rates = append(rates, rate)
			peaks = append(peaks, peakRSSMiB())
		}
	}

	failed, err := verify(ctx, r, o, outputs, stdout)
	if err != nil {
		return outcome{}, err
	}
	res.Failed += failed * units
	eta, etaDigest, err := accuracy(ctx, o, w.traces)
	if err != nil {
		return outcome{}, fmt.Errorf("accuracy: %w", err)
	}
	res.Attempted++
	if pin := pinned(w.name+"/accuracy", o.scale); pin != "" && pin != etaDigest {
		res.Failed++
	}
	fmt.Fprintf(stdout, "check %s/accuracy: rows %s, pinned %q\n", w.name, etaDigest, pinned(w.name+"/accuracy", o.scale))
	if res.Failed > 0 {
		res.Correct = false
	}
	if len(rates) == 0 {
		return outcome{}, fmt.Errorf("every repetition failed")
	}
	for name, v := range map[string]float64{
		"records_per_s": quantile(rates, rateQuantile),
		"setup_s":       median(setups),
		"peak_rss_mib":  median(peaks),
		"eta_mae_pp":    eta,
	} {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	fmt.Fprintf(stdout, "reps: %d, records/s per rep: %s\n", len(rates), fmtList(rates))
	fmt.Fprintf(stdout, "records/s: lower decile %.4g, median %.4g, aggregate %.4g\n",
		quantile(rates, rateQuantile), median(rates), float64(records)/timed)
	fmt.Fprintf(stdout, "set-up rounds (s): %s\n", fmtList(setups))
	fmt.Fprintf(stdout, "fail_ratio: %.4f (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

// verify checks every output the timed region produced: each must equal the
// pinned digest for its key, or — for keys with no pin, i.e. held-out seeds
// and scaled runs — the digest of an independent path to the same output.
// It returns how many repetitions' outputs mismatched.
func verify(ctx context.Context, r run, o options, outputs map[string][]string, stdout io.Writer) (int, error) {
	keys := make([]string, 0, len(outputs))
	for k := range outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := 0
	for _, k := range keys {
		var wants []string
		if pin := pinned(k, o.scale); pin != "" {
			wants = append(wants, pin)
			fmt.Fprintf(stdout, "check %s: pinned %s\n", k, pin)
		}
		if len(wants) == 0 {
			ref, err := r.reference(ctx, k)
			if err != nil {
				return 0, fmt.Errorf("reference for %s: %w", k, err)
			}
			wants = append(wants, ref)
			fmt.Fprintf(stdout, "check %s: cross-path %s\n", k, ref)
		}
		bad := 0
		for _, got := range outputs[k] {
			for _, want := range wants {
				if got != want {
					bad++
					break
				}
			}
		}
		fmt.Fprintf(stdout, "check %s: %d/%d outputs match\n", k, len(outputs[k])-bad, len(outputs[k]))
		failed += bad
	}
	return failed, nil
}

func printMetrics(w io.Writer, res outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct: %v, attempted: %d, failed: %d\n", res.Correct, res.Attempted, res.Failed)
}

// resultFile is what a run leaves in the output directory for compare.
type resultFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Scale       uint64      `json:"scale"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      outcome     `json:"result"`
}

func writeResult(o options, fp fingerprint, res outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultFile{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Scale: o.scale, Fingerprint: fp, Result: res,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the p-quantile of xs, interpolated linearly between the two
// nearest order statistics (0 for no samples).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (k-float64(i))*(s[i+1]-s[i])
}

func fmtList(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out
}
