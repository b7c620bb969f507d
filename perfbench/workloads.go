package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"heteromem/internal/addr"
	"heteromem/internal/core"
	"heteromem/internal/dsweep"
	"heteromem/internal/experiments"
	"heteromem/internal/memctrl"
	"heteromem/internal/sim"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

const (
	// A run builds its inputs at least minSetupRounds times and keeps
	// going, up to maxSetupRounds, until setupBudget is spent; setup_s is
	// the median, so one slow round (a GC or scheduler hiccup) cannot
	// move it, and short set-ups get more samples.
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 1500 * time.Millisecond
	// minReps is the fewest timed repetitions a run makes, however short
	// --seconds is, so every median has at least three samples.
	minReps = 3
	// rateQuantile is the quantile of the per-repetition rates that
	// records_per_s reports: the lower decile.
	rateQuantile = 0.1
	// parallelism is the busy-goroutine cap of the parallel workloads: the
	// two-core sandbox the benchmark is sized for.
	parallelism = 2

	// Record budgets at scale 1.
	replayRecords  = 4_000_000
	shardedRecords = 2_000_000
	table4Records  = 100_000 // per cell; 78 cells per sweep
	fleetRecords   = 300_000 // per cell; 9 cells per sweep

	// eta_mae_pp is stated at fixed inputs — generator seed 1 and 200k
	// records per Table IV cell — so it is deterministic and moves only
	// when the model changes, never with --seed.
	accuracySeed    = 1
	accuracyRecords = 200_000
)

// run is one workload's prepared state after set-up.
type run interface {
	// rep executes one timed repetition.
	rep(ctx context.Context, i int) (repResult, error)
	// reference recomputes the output named key along an independent path
	// (generator-driven instead of packed, in-process instead of leased)
	// and returns its digest.
	reference(ctx context.Context, key string) (string, error)
}

// repResult is what one timed repetition did.
type repResult struct {
	records uint64            // trace records simulated, summed over cells
	units   int               // runs or cells attempted
	failed  int               // cells lost to takeovers or abandonment
	outputs map[string]string // output key -> digest of the simulated output
}

// workloadDef is one named benchmark workload, or a traced part folded into
// one.
type workloadDef struct {
	name string
	why  string
	// traces are the Table IV workloads whose traces it simulates: its
	// eta_mae_pp is the model's Table IV error over them.
	traces []string
	setup  func(ctx context.Context, o options) (run, error)
	trace  func(ctx context.Context, o options, t *tracer) error
	// folded are traced parts that run after this workload's own traced
	// run: they measure the layers no named workload reaches (obs and the
	// sharded runner; dsweep, snap and scheme) and have no untraced run of
	// their own.
	folded []*workloadDef
}

var workloads = map[string]*workloadDef{}

func init() {
	sharded := &workloadDef{name: "sharded-obs", trace: traceSharded}
	fleet := &workloadDef{name: "fleet", trace: traceFleet}
	for _, w := range []*workloadDef{
		{name: "replay", setup: setupReplay, trace: traceReplay, traces: []string{"SPEC2006"}, folded: []*workloadDef{sharded},
			why: "packed SPEC2006 through sim.Run on one channel: the record hot path alone; its traced run also measures 2-channel pgbench with obs on"},
		{name: "table4", setup: setupTable4, trace: traceTable4, traces: workload.Names(), folded: []*workloadDef{fleet},
			why: "experiments.Table4Data over six workloads, 78 short cells on 2 goroutines; its traced run also measures a loopback dsweep fleet of 9 cells"},
	} {
		workloads[w.name] = w
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// digest is the canonical digest of a simulated output: SHA-256 of its JSON
// encoding (encoding/json sorts map keys, so the encoding is canonical).
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// hubConfig is the controller configuration sim.Run builds from cfg.
func hubConfig(cfg sim.Config) (memctrl.Config, memctrl.HubConfig) {
	return memctrl.Config{
			Geometry:   cfg.Geometry,
			Latencies:  cfg.Latencies,
			OffTiming:  cfg.OffTiming,
			OnTiming:   cfg.OnTiming,
			Migration:  cfg.Migration,
			Scheme:     cfg.Scheme,
			OSAssisted: cfg.OSAssisted,
			Sched:      cfg.Sched,
			Audit:      cfg.Audit,
			Fault:      cfg.Fault,
		}, memctrl.HubConfig{
			Channels:   max(cfg.Channels, 1),
			Interleave: cfg.InterleaveBytes,
			HopLatency: cfg.HopLatency,
		}
}

// newHub builds the controller of cfg, the construction every sim.Run pays.
func newHub(cfg sim.Config, onResult func(memctrl.AccessResult)) (*memctrl.Hub, error) {
	mcfg, hcfg := hubConfig(cfg)
	return memctrl.NewHub(mcfg, hcfg, onResult)
}

// packTrace generates and packs one memory trace.
func packTrace(name string, seed int64, n uint64) (*trace.Packed, error) {
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return nil, err
	}
	return trace.Pack(gen, n)
}

// runGenerated simulates cfg over the generator-driven trace: the path
// every packed replay must match byte for byte.
func runGenerated(ctx context.Context, name string, seed int64, cfg sim.Config) (sim.Result, error) {
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunContext(ctx, trace.NewLimit(gen, cfg.MaxRecords), cfg)
}

// forEach runs fn(0..n-1) on `parallelism` goroutines and returns the first
// error.
func forEach(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for g := 0; g < parallelism; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// ---- replay and sharded-obs: one packed cell through sim.Run ----

// singleRun replays one packed trace through sim.Run.
type singleRun struct {
	o      options
	name   string // the benchmark workload
	trace  string // the memory trace it replays
	cfg    sim.Config
	packed *trace.Packed
}

func replayConfig(o options) sim.Config {
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 64 * addr.KiB
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 1000}
	cfg.OSAssisted = true // below the pure-hardware 1 MiB split, as in Table IV
	cfg.MaxRecords = replayRecords / o.scale
	cfg.Warmup = cfg.MaxRecords / 2
	return cfg
}

func shardedConfig(o options) sim.Config {
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = 4 * addr.MiB
	cfg.Migration = &core.Options{Design: core.DesignN1, SwapInterval: 10_000}
	cfg.Channels = 2
	cfg.Metrics = true
	cfg.EpochSeries = 64
	cfg.MaxRecords = shardedRecords / o.scale
	cfg.Warmup = cfg.MaxRecords / 2
	return cfg
}

func setupSingle(o options, trace string, cfg sim.Config) (*singleRun, error) {
	p, err := packTrace(trace, o.seed, cfg.MaxRecords)
	if err != nil {
		return nil, err
	}
	if _, err := newHub(cfg, nil); err != nil {
		return nil, err
	}
	return &singleRun{o: o, name: o.workload, trace: trace, cfg: cfg, packed: p}, nil
}

func setupReplay(ctx context.Context, o options) (run, error) {
	return setupSingle(o, "SPEC2006", replayConfig(o))
}

func (r *singleRun) key() string { return fmt.Sprintf("%s/seed=%d", r.name, r.o.seed) }

func (r *singleRun) rep(ctx context.Context, i int) (repResult, error) {
	res, err := sim.RunContext(ctx, trace.NewPackedSource(r.packed), r.cfg)
	if err != nil {
		return repResult{units: 1}, err
	}
	d, err := digest(res)
	if err != nil {
		return repResult{units: 1}, err
	}
	return repResult{records: res.Records, units: 1, outputs: map[string]string{r.key(): d}}, nil
}

func (r *singleRun) reference(ctx context.Context, key string) (string, error) {
	if key != r.key() {
		return "", fmt.Errorf("unknown output %q", key)
	}
	res, err := runGenerated(ctx, r.trace, r.o.seed, r.cfg)
	if err != nil {
		return "", err
	}
	return digest(res)
}

// ---- table4: the Table IV sweep driver ----

// table4Seed is the generator seed of the table4 sweep: experiments.Params
// reads seed 0 as 1, and the cross-path reference must see the same inputs.
func table4Seed(seed int64) int64 { return max(seed, 1) }

func table4Key(seed int64) string { return fmt.Sprintf("table4/seed=%d", seed) }

// table4Cells mirrors the sweep grid of experiments.Table4Data: per
// workload one static baseline plus Live migration at every granularity and
// both swap intervals.
type table4Cell struct {
	wl       int
	page     uint64
	interval uint64 // 0 marks the static baseline
}

func table4Grid() []table4Cell {
	var cells []table4Cell
	for wl := range workload.Names() {
		cells = append(cells, table4Cell{wl: wl, page: 64 * addr.KiB})
		for _, page := range experiments.Granularities {
			for _, interval := range []uint64{1000, 10_000} {
				cells = append(cells, table4Cell{wl: wl, page: page, interval: interval})
			}
		}
	}
	return cells
}

func (c table4Cell) config(records uint64) sim.Config {
	cfg := sim.Default()
	cfg.Geometry.MacroPageSize = c.page
	if c.interval > 0 {
		cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: c.interval}
		cfg.OSAssisted = c.page < experiments.PureHardwareMinPage
	}
	cfg.MaxRecords = records
	cfg.Warmup = records / 2
	return cfg
}

// table4Rows reduces per-cell results to Table IV rows: an independent
// restatement of the driver's reduction, so it can serve as the cross-path
// reference.
func table4Rows(grid []table4Cell, results []sim.Result) []experiments.Table4Row {
	names := workload.Names()
	out := make([]experiments.Table4Row, len(names))
	have := make([]bool, len(names))
	for i, c := range grid {
		res, row := results[i], &out[c.wl]
		row.Workload = names[c.wl]
		if c.interval == 0 {
			row.LatNoMig = res.MeanDRAMLatency
			continue
		}
		if !have[c.wl] || res.MeanDRAMLatency < row.BestLatMig {
			have[c.wl] = true
			row.BestLatMig, row.CoreLatency = res.MeanDRAMLatency, res.Report.MeanCoreLat
			row.BestPage, row.BestInterval = c.page, c.interval
		}
	}
	for i := range out {
		if out[i].BestLatMig > out[i].LatNoMig || !have[i] {
			out[i].BestLatMig = out[i].LatNoMig
			out[i].BestPage, out[i].BestInterval = 0, 0
		}
		out[i].Effectiveness = sim.Effectiveness(out[i].LatNoMig, out[i].BestLatMig, out[i].CoreLatency)
	}
	return out
}

// etaMAE is the mean absolute difference, in percentage points, between
// simulated and published Table IV effectiveness.
func etaMAE(rows []experiments.Table4Row) float64 {
	var sum float64
	for _, r := range rows {
		sum += math.Abs(r.Effectiveness - experiments.PaperTable4[r.Workload])
	}
	return sum / float64(len(rows))
}

// accuracy is eta_mae_pp over the given Table IV workloads, with the
// digest of the rows it came from (pinned like every simulated output).
func accuracy(ctx context.Context, o options, traces []string) (float64, string, error) {
	rows, err := experiments.Table4Data(ctx, experiments.Params{
		Records: accuracyRecords / o.scale, Seed: accuracySeed, Workloads: traces, Parallelism: parallelism})
	if err != nil {
		return 0, "", err
	}
	d, err := digest(rows)
	return etaMAE(rows), d, err
}

func table4Params(o options, seed int64) experiments.Params {
	return experiments.Params{Records: table4Records / o.scale, Seed: seed, Parallelism: parallelism}
}

type table4Run struct {
	o options
}

// setupTable4 does, on its own, the set-up work the sweep driver repeats
// inside every Table4Data call: generate and pack the six traces and build
// one controller (translation table included) per distinct cell config.
func setupTable4(ctx context.Context, o options) (run, error) {
	records := table4Records / o.scale
	for _, name := range workload.Names() {
		if _, err := packTrace(name, table4Seed(o.seed), records); err != nil {
			return nil, err
		}
	}
	for _, c := range table4Grid()[:len(table4Grid())/len(workload.Names())] {
		if _, err := newHub(c.config(records), nil); err != nil {
			return nil, err
		}
	}
	return &table4Run{o: o}, nil
}

func (r *table4Run) rep(ctx context.Context, i int) (repResult, error) {
	seed := table4Seed(r.o.seed)
	cells := len(table4Grid())
	rows, err := experiments.Table4Data(ctx, table4Params(r.o, seed))
	if err != nil {
		return repResult{units: cells}, err
	}
	d, err := digest(rows)
	if err != nil {
		return repResult{units: cells}, err
	}
	return repResult{
		records: uint64(cells) * (table4Records / r.o.scale),
		units:   cells,
		outputs: map[string]string{table4Key(seed): d},
	}, nil
}

func (r *table4Run) reference(ctx context.Context, key string) (string, error) {
	var seed int64
	if _, err := fmt.Sscanf(key, "table4/seed=%d", &seed); err != nil {
		return "", fmt.Errorf("unknown output %q", key)
	}
	grid := table4Grid()
	names := workload.Names()
	records := table4Records / r.o.scale
	results := make([]sim.Result, len(grid))
	err := forEach(len(grid), func(i int) error {
		var err error
		results[i], err = runGenerated(ctx, names[grid[i].wl], seed, grid[i].config(records))
		return err
	})
	if err != nil {
		return "", err
	}
	return digest(table4Rows(grid, results))
}

// ---- fleet: a local dsweep coordinator and two workers ----

var fleetTraces = []string{"pgbench", "indexer", "SPECjbb"}

// fleetCells is the fleet grid: three workloads × {N-1 at the default
// 4 MiB page, Live at 64 KiB, alloy-pred}.
func fleetCells(o options) []dsweep.CellSpec {
	n := fleetRecords / o.scale
	var cells []dsweep.CellSpec
	for _, wl := range fleetTraces {
		cells = append(cells,
			dsweep.CellSpec{Workload: wl, Seed: o.seed, Design: "n-1", Interval: 10_000, Records: n, Warmup: n / 2},
			dsweep.CellSpec{Workload: wl, Seed: o.seed, Design: "live", PageSize: 64 * addr.KiB, Interval: 1000, Records: n, Warmup: n / 2},
			dsweep.CellSpec{Workload: wl, Seed: o.seed, Design: "none", Scheme: "alloy-pred", Records: n, Warmup: n / 2},
		)
	}
	return cells
}

type fleetRun struct {
	o     options
	cells []dsweep.CellSpec
	cfgs  []sim.Config
	keys  []string
	// last is the coordinator's state after the latest sweep, for the
	// traced run.
	last fleetSweep
}

// fleetSweep is what one distributed sweep left behind.
type fleetSweep struct {
	stats   dsweep.Stats
	metrics string
	results []json.RawMessage
}

func setupFleet(ctx context.Context, o options) (run, error) {
	r := &fleetRun{o: o, cells: fleetCells(o)}
	for _, c := range r.cells {
		cfg, err := c.Config()
		if err != nil {
			return nil, err
		}
		key, err := c.Key()
		if err != nil {
			return nil, err
		}
		if _, err := newHub(cfg, nil); err != nil {
			return nil, err
		}
		r.cfgs = append(r.cfgs, cfg)
		r.keys = append(r.keys, key)
	}
	return r, nil
}

func (r *fleetRun) key() string { return fmt.Sprintf("fleet/seed=%d", r.o.seed) }

// sweep runs the grid through an in-process coordinator and two workers
// over loopback, with the manifest in a fresh temporary directory.
func (r *fleetRun) sweep(ctx context.Context) (fleetSweep, error) {
	dir, err := os.MkdirTemp("", "perfbench-fleet-")
	if err != nil {
		return fleetSweep{}, err
	}
	defer os.RemoveAll(dir)
	m, err := experiments.OpenManifest(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		return fleetSweep{}, err
	}
	defer m.Close()
	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{Cells: r.cells, Manifest: m})
	if err != nil {
		return fleetSweep{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fleetSweep{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, 1+parallelism)
	go func() { errs <- coord.Serve(ctx, ln) }()
	for i := 0; i < parallelism; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() { errs <- dsweep.RunWorker(ctx, ln.Addr().String(), dsweep.WorkerConfig{Name: name}) }()
	}
	var first error
	for i := 0; i < 1+parallelism; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel() // stop the rest; the loop still waits for every goroutine
		}
	}
	if first != nil {
		return fleetSweep{}, first
	}
	var b strings.Builder
	coord.WriteMetrics(&b)
	s := fleetSweep{stats: coord.Stats(), metrics: b.String()}
	for _, k := range r.keys {
		raw, ok := m.LookupRaw(k)
		if !ok {
			s.results = append(s.results, nil) // abandoned cell: counted as failed
			continue
		}
		s.results = append(s.results, raw)
	}
	return s, nil
}

func (r *fleetRun) rep(ctx context.Context, i int) (repResult, error) {
	s, err := r.sweep(ctx)
	if err != nil {
		return repResult{units: len(r.cells)}, err
	}
	r.last = s
	failed := s.stats.Takeovers + s.stats.Failed
	var records uint64
	for i, raw := range s.results {
		if raw == nil {
			failed++
			continue
		}
		records += r.cells[i].Records
	}
	d, err := digest(s.results)
	if err != nil {
		return repResult{units: len(r.cells)}, err
	}
	return repResult{records: records, units: len(r.cells), failed: min(failed, len(r.cells)),
		outputs: map[string]string{r.key(): d}}, nil
}

// inProcess runs the grid without dsweep: the same cells on two goroutines,
// generator-driven, with checkpointing as configured by every.
func (r *fleetRun) inProcess(ctx context.Context, every func(sim.Config) uint64, sink func(int) func([]byte, uint64) error) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(r.cells))
	err := forEach(len(r.cells), func(i int) error {
		cfg := r.cfgs[i]
		if every != nil {
			cfg.CheckpointEvery = every(cfg)
			cfg.CheckpointSink = sink(i)
		}
		res, err := runGenerated(ctx, r.cells[i].Workload, r.cells[i].Seed, cfg)
		if err != nil {
			return err
		}
		out[i], err = json.Marshal(res)
		return err
	})
	return out, err
}

func (r *fleetRun) reference(ctx context.Context, key string) (string, error) {
	if key != r.key() {
		return "", fmt.Errorf("unknown output %q", key)
	}
	results, err := r.inProcess(ctx, nil, nil)
	if err != nil {
		return "", err
	}
	return digest(results)
}
