package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileAgreesWithCode pins BENCHMARK.json to the benchmark's
// own tables: the same workloads with the same reasons, and the same metric
// names, units and directions.
func TestBenchmarkFileAgreesWithCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		def, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not in the code", w.Name)
			continue
		}
		if w.Why != def.why {
			t.Errorf("workload %q: why differs:\n json: %s\n code: %s", w.Name, w.Why, def.why)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end metric %q (%s) does not match the code (%q)", m.Name, m.Unit, unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: json %s/%s/%s, code %s/%s/%s",
				i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}

// TestWorkloadsTinyScale runs every workload, untraced and traced, at a
// hundredth of its record budget and checks the result line: every metric
// named in BENCHMARK.json is present with its unit, and the simulated
// outputs pass their cross-path checks.
func TestWorkloadsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := benchMain([]string{"--workload", name, "--seed", "7", "--seconds", "0.01",
					"--trace", traced, "--scale", "100", "--out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := units[traced == "1"]
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
						t.Errorf("metric %s missing or with unit %q, want %q", n, m.Unit, unit)
					}
				}
			})
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	fp := hostFingerprint(".")
	write := func(name string, f fingerprint) string {
		data, err := json.Marshal(resultFile{Workload: "replay", Seconds: 10, Scale: 1, Fingerprint: f,
			Result: outcome{Correct: true, Attempted: 1, Metrics: map[string]metric{"records_per_s": {1, "records/s"}}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", fp)
	other := fp
	other.Commit = "another commit"
	if code := compareMain([]string{a, write("b.json", other)}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Errorf("same host, different commit: exit %d, want 0", code)
	}
	other.CPU = "another cpu"
	var stderr bytes.Buffer
	if code := compareMain([]string{a, write("c.json", other)}, &bytes.Buffer{}, &stderr); code == 0 {
		t.Error("compare accepted results from different hosts")
	} else if !strings.Contains(stderr.String(), "different hosts") {
		t.Errorf("refusal does not say why: %s", stderr.String())
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"heteromem/internal/sched.(*Scheduler).Advance": "heteromem/internal/sched",
		"runtime.mallocgc":  "runtime",
		"main.main.func1":   "main",
		"sort.Search":       "sort",
		"no-package-symbol": "no-package-symbol",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.1, 1.4}, {0.25, 2}, {0.5, 3}, {1, 5}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if got := quantile(nil, 0.1); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

// TestTracedRunsCoverEveryLayer checks that the named workloads' traced
// runs, folded parts included, measure every per-layer metric somewhere.
func TestTracedRunsCoverEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every traced part")
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, part := range append([]*workloadDef{w}, w.folded...) {
			o := options{workload: part.name, seed: 7, seconds: 0.01, trace: true, scale: 100}
			tr, err := tracePart(context.Background(), part, o, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", part.name, err)
			}
			for n := range tr.seen {
				seen[n] = true
			}
		}
	}
	for _, m := range layerMetrics {
		if !seen[m.name] {
			t.Errorf("no traced run measures %s", m.name)
		}
	}
}

func TestFoldKeepsNamedWorkloadMetrics(t *testing.T) {
	named, part := newTracer(), newTracer()
	named.set("core.epochs", 4)
	named.check("a", "x", "x")
	part.set("core.epochs", 9)
	part.set("obs.overhead_pct", 0)
	part.set("sim.shard_speedup", 1.5)
	part.check("b", "x", "y")
	named.fold(part)
	if named.metrics["core.epochs"] != 4 || named.metrics["sim.shard_speedup"] != 1.5 || !named.seen["obs.overhead_pct"] {
		t.Errorf("fold: metrics %v, seen %v", named.metrics, named.seen)
	}
	if named.checks != 2 || named.failed != 1 {
		t.Errorf("fold: %d checks, %d failed; want 2, 1", named.checks, named.failed)
	}
}
