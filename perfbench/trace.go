package main

// The traced run. Spans are recorded only here, in the benchmark, around its
// own calls into each layer's public functions; nothing inside the simulator
// is instrumented. Layers below memctrl (core, scheme, sched, dram, stats)
// cannot be wrapped from outside a Hub.Access call, so their cost is measured
// by replaying the input stream the layer saw in the workload — captured from
// the record stream and the memctrl.AccessResult callback — through the
// layer's own public functions. A layer's self time is its span minus its
// children; the budget table adds every self time and the unattributed
// remainder up to the traced wall time.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"heteromem/internal/core"
	"heteromem/internal/dram"
	"heteromem/internal/experiments"
	"heteromem/internal/memctrl"
	"heteromem/internal/obs"
	"heteromem/internal/sched"
	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
	"heteromem/internal/stats"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// layerMetric is one per-layer metric: its unit, which way is better, and
// the end-to-end metric a change to it should move (on the workloads named).
// A metric neither a workload's traced run nor its folded parts exercise
// reads 0 on that workload.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"trace.decode_ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"trace.pack_ns_per_record", "ns/record", "lower", "setup_s on replay, table4"},
	{"trace.packed_bytes_per_record", "B/record", "lower", "peak_rss_mib on table4"},
	{"workload.gen_ns_per_record", "ns/record", "lower", "setup_s on replay, table4; the fleet part of table4's traced run (no timed workload runs it)"},
	{"core.migrator_ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"core.swaps_completed", "count", "lower", "simulated, doubles as a check; copy load in the sharded-obs part of replay's traced run (no timed workload runs it)"},
	{"core.epochs", "count", "lower", "simulated; doubles as a check"},
	{"scheme.lookup_ns_per_record", "ns/record", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"scheme.hit_rate", "ratio", "higher", "simulated; doubles as a check (fleet part)"},
	{"sched.ns_per_request", "ns/request", "lower", "records_per_s on replay (largest share)"},
	{"sched.queue_mean_cycles_on", "cycles", "lower", "simulated; doubles as a check (replay)"},
	{"sched.queue_mean_cycles_off", "cycles", "lower", "simulated; doubles as a check (replay)"},
	{"dram.service_ns_per_burst", "ns/burst", "lower", "records_per_s on replay"},
	{"dram.row_hit_rate", "ratio", "higher", "simulated; doubles as a check (replay)"},
	{"memctrl.access_ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"memctrl.self_ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"memctrl.new_ms", "ms", "lower", "setup_s, records_per_s on table4"},
	{"memctrl.on_package_share", "ratio", "higher", "simulated; doubles as a check (all)"},
	{"stats.ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"obs.overhead_pct", "%", "lower", "the sharded-obs part of replay's traced run (no timed workload runs it)"},
	{"obs.snapshot_ms", "ms", "lower", "the sharded-obs part of replay's traced run (no timed workload runs it)"},
	{"sim.loop_ns_per_record", "ns/record", "lower", "records_per_s on replay"},
	{"sim.shard_speedup", "x", "higher", "the sharded-obs part of replay's traced run (no timed workload runs it)"},
	{"snap.encode_ms_per_checkpoint", "ms", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"snap.bytes_per_checkpoint", "B", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"experiments.cell_s_p50", "s", "lower", "records_per_s on table4"},
	{"experiments.cell_s_max", "s", "lower", "records_per_s on table4 (the slowest cell sets the tail)"},
	{"experiments.parallel_efficiency", "ratio", "higher", "records_per_s on table4"},
	{"dsweep.overhead_pct", "%", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"dsweep.shipped_mib", "MiB", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"dsweep.heartbeat_rtt_us_p50", "us", "lower", "the fleet part of table4's traced run (no timed workload runs it)"},
	{"dsweep.takeovers", "count", "lower", "correctness of table4's traced run; must be 0"},
	{"budget.traced_wall_s", "s", "lower", "the wall time the budget table divides"},
	{"budget.unattributed_pct", "%", "lower", "share of the traced wall no span covers"},
	{"budget.tracing_overhead_pct", "%", "lower", "untraced minus traced records_per_s, as a share of untraced"},
}

// captureMax bounds how many access results the traced run keeps for the
// lower-layer replays (20 bytes each), so tracing a long run stays small.
const captureMax = 1 << 20

// tracer accumulates the spans, metrics, checks and budget of a traced run.
type tracer struct {
	spans   []spanRec
	metrics map[string]float64
	seen    map[string]bool // metrics the run measured (set, even to 0)
	budget  []budgetRow
	wall    time.Duration
	checks  int
	failed  int
	notes   []string
	profile map[string]float64 // CPU profile, seconds per package
}

// spanRec is one recorded span: a call into a layer, made by the benchmark.
type spanRec struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Count   uint64 `json:"count,omitempty"` // records or requests the span covered
}

// budgetRow is one line of the budget: a layer's self time on the traced
// wall.
type budgetRow struct {
	layer string
	self  time.Duration
	how   string
}

func newTracer() *tracer {
	t := &tracer{metrics: map[string]float64{}, seen: map[string]bool{}}
	for _, m := range layerMetrics {
		t.metrics[m.name] = 0
	}
	return t
}

var epoch = time.Now()

// span times fn as one call into layer name.
func (t *tracer) span(name, parent string, count uint64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.spans = append(t.spans, spanRec{Name: name, Parent: parent, StartNs: start.Sub(epoch).Nanoseconds(), DurNs: d.Nanoseconds(), Count: count})
	return d, err
}

func (t *tracer) set(name string, v float64) {
	if _, ok := t.metrics[name]; !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	t.metrics[name] = v
	t.seen[name] = true
}

// fold adds a folded part's checks to t, and the metrics it measured that t
// did not: a metric both measure keeps the named workload's value.
func (t *tracer) fold(part *tracer) {
	for name, v := range part.metrics {
		if part.seen[name] && !t.seen[name] {
			t.set(name, v)
		}
	}
	t.checks += part.checks
	t.failed += part.failed
}

// check records one correctness comparison of the traced run.
func (t *tracer) check(what, got, want string) {
	t.checks++
	ok := got == want
	if !ok {
		t.failed++
	}
	t.notes = append(t.notes, fmt.Sprintf("check %s: %s vs %s: %v", what, got, want, map[bool]string{true: "match", false: "MISMATCH"}[ok]))
}

func (t *tracer) row(layer string, self time.Duration, how string) {
	t.budget = append(t.budget, budgetRow{layer, self, how})
}

// traceWorkload performs the traced run of w, then of each part folded into
// it, printing every budget; the result carries w's metrics plus those only
// a folded part measures.
func traceWorkload(ctx context.Context, w *workloadDef, o options, stdout io.Writer) (outcome, error) {
	t, err := tracePart(ctx, w, o, stdout)
	if err != nil {
		return outcome{}, err
	}
	for _, part := range w.folded {
		po := o
		po.workload = part.name // output keys, pins and span files are the part's
		fmt.Fprintf(stdout, "folded into %s's traced run:\n", w.name)
		pt, err := tracePart(ctx, part, po, stdout)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", part.name, err)
		}
		t.fold(pt)
	}
	res := outcome{Correct: t.failed == 0, Attempted: max(t.checks, 1), Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{t.metrics[m.name], m.unit}
	}
	return res, nil
}

// tracePart performs one traced run and prints its budget.
func tracePart(ctx context.Context, w *workloadDef, o options, stdout io.Writer) (*tracer, error) {
	t := newTracer()
	if err := w.trace(ctx, o, t); err != nil {
		return nil, err
	}
	var attributed time.Duration
	for _, r := range t.budget {
		attributed += r.self
	}
	rest := t.wall - attributed
	t.set("budget.traced_wall_s", t.wall.Seconds())
	t.set("budget.unattributed_pct", pct(rest, t.wall))

	fmt.Fprintf(stdout, "per-layer budget of %s (traced wall %.3f s):\n", w.name, t.wall.Seconds())
	fmt.Fprintf(stdout, "  %-24s %10s %7s  %s\n", "layer", "self s", "share", "measured by")
	for _, r := range t.budget {
		fmt.Fprintf(stdout, "  %-24s %10.4f %6.1f%%  %s\n", r.layer, r.self.Seconds(), pct(r.self, t.wall), r.how)
	}
	fmt.Fprintf(stdout, "  %-24s %10.4f %6.1f%%  %s\n", "(unattributed)", rest.Seconds(), pct(rest, t.wall), "traced wall minus every row above")
	fmt.Fprintf(stdout, "  %-24s %10.4f %6.1f%%\n", "total", t.wall.Seconds(), 100.0)
	fmt.Fprintf(stdout, "tracing overhead: %.2f%% of untraced records/s\n", t.metrics["budget.tracing_overhead_pct"])
	if t.profile != nil {
		printProfile(stdout, t.profile)
	}
	for _, n := range t.notes {
		fmt.Fprintln(stdout, n)
	}
	if o.out != "" {
		if err := writeSpans(o, t.spans); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func writeSpans(o options, spans []spanRec) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed)), data, 0o644)
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// overheadPct is how much slower traced is than untraced, as a share of
// untraced (negative when the traced runs happened to be faster).
func overheadPct(untraced, traced time.Duration) float64 {
	return (float64(traced) - float64(untraced)) / float64(untraced) * 100
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ---- set-up spans: generation and packing ----

// genAndPack measures workload.Generator.NextBatch alone, then trace.Pack
// over a fresh generator; pack's self time excludes the generation it pulls.
func genAndPack(t *tracer, name string, seed int64, n uint64) (*trace.Packed, time.Duration, time.Duration, error) {
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	genD, err := t.span("workload.gen", "setup", n, func() error { return drainBatches(gen, n, nil) })
	if err != nil {
		return nil, 0, 0, err
	}
	var p *trace.Packed
	packD, err := t.span("trace.pack", "setup", n, func() error {
		g, err := workload.NewMemory(name, seed)
		if err != nil {
			return err
		}
		p, err = trace.Pack(g, n)
		return err
	})
	return p, genD, max(packD-genD, 0), err
}

// drainBatches reads n records from src in batches, handing each to fn.
func drainBatches(src trace.BatchSource, n uint64, fn func(b *trace.Batch, k int) error) error {
	var b trace.Batch
	for done := uint64(0); done < n; {
		b.Resize(int(min(n-done, trace.PackedChunkRecords)))
		k, err := src.NextBatch(&b)
		if fn != nil && k > 0 {
			if ferr := fn(&b, k); ferr != nil {
				return ferr
			}
		}
		done += uint64(k)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- the benchmark's own run loop ----

// capture is the stream the controller's lower layers saw, recorded from
// the AccessResult callback.
type capture struct {
	machine []uint64
	issue   []int64
	lat     []int32
	write   []bool
}

func (c *capture) add(r memctrl.AccessResult) {
	if len(c.machine) >= captureMax {
		return
	}
	c.machine = append(c.machine, r.Machine)
	c.issue = append(c.issue, r.Issue)
	c.lat = append(c.lat, int32(r.Done-r.Issue))
	c.write = append(c.write, r.Write)
}

// loopResult is what tracedLoop measured.
type loopResult struct {
	res                 sim.Result
	wall, decode, acc   time.Duration
	newHub, flush, pubs time.Duration
	// devs are shard 0's devices: their geometry and timing shape the
	// dram replay, their counters give the simulated row-hit rate.
	devs [2]*dram.Device
}

// tracedLoop is sim.Run's single-controller loop restated over the public
// API, with a span around every batch decode and every batch of Hub.Access
// calls: batches split at the warmup edge exactly as sim.Run splits them.
// With serial set and cfg.Channels > 1 it drives the sharded hub from one
// goroutine. regs, when non-nil, are the per-shard observability registries.
func tracedLoop(t *tracer, p *trace.Packed, cfg sim.Config, regs []*obs.Registry, onResult func(memctrl.AccessResult)) (loopResult, error) {
	var lr loopResult
	start := time.Now()
	mcfg, hcfg := hubConfig(cfg)
	hcfg.ShardObs = regs
	var hub *memctrl.Hub
	var err error
	lr.newHub, err = t.span("memctrl.new", "sim.loop", 0, func() error {
		hub, err = memctrl.NewHub(mcfg, hcfg, onResult)
		return err
	})
	if err != nil {
		return lr, err
	}
	src := trace.NewPackedSource(p)
	var b trace.Batch
	n := uint64(0)
	for n < cfg.MaxRecords {
		want := min(cfg.MaxRecords-n, trace.PackedChunkRecords)
		if cfg.Warmup > n {
			want = min(want, cfg.Warmup-n)
		}
		b.Resize(int(want))
		var k int
		var rerr error
		d, _ := t.span("trace.decode", "sim.loop", want, func() error {
			k, rerr = src.NextBatch(&b)
			return nil
		})
		lr.decode += d
		d, err := t.span("memctrl.access", "sim.loop", uint64(k), func() error {
			for j := 0; j < k; j++ {
				if err := hub.Access(b.Addr[j], b.Write[j], int64(b.Cycle[j])); err != nil {
					return err
				}
			}
			return nil
		})
		lr.acc += d
		if err != nil {
			return lr, err
		}
		n += uint64(k)
		if cfg.Warmup > 0 && n == cfg.Warmup && k > 0 {
			hub.ResetStats()
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return lr, rerr
		}
	}
	var last int64
	lr.flush, _ = t.span("memctrl.flush", "sim.loop", 0, func() error {
		last = hub.Flush()
		return hub.Err()
	})
	if err := hub.Err(); err != nil {
		return lr, err
	}
	if regs != nil {
		var snaps []*obs.Snapshot
		lr.pubs, _ = t.span("obs.snapshot", "sim.loop", 0, func() error {
			hub.PublishObs()
			for _, reg := range regs {
				snaps = append(snaps, reg.Snapshot())
			}
			return nil
		})
		lr.res.Metrics = obs.MergeSnapshots(snaps...)
	}
	lr.res.Report = hub.Report()
	lr.res.Records = n
	lr.res.LastCycle = last
	lr.res.MeanLatency = lr.res.Report.All.Mean()
	lr.res.MeanDRAMLatency = lr.res.Report.DRAMAll.Mean()
	lr.wall = time.Since(start)
	lr.devs[0], lr.devs[1] = hub.Shard(0).Devices()
	return lr, nil
}

// ---- lower-layer replays ----

// replayMigrator drives a fresh migrator with the run's physical stream:
// Translate and OnAccess per record, EpochTick per record, and each swap's
// steps completed at once through SubDone/StepDone.
func replayMigrator(t *tracer, p *trace.Packed, cfg sim.Config) (time.Duration, error) {
	opt := *cfg.Migration
	g := cfg.Geometry
	opt.Slots = g.OnPackageSlots()
	opt.TotalPages = g.TotalPages()
	opt.PageSize = g.MacroPageSize
	opt.SubBlockSize = g.SubBlockSize
	m, err := core.NewMigrator(opt)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	err = drainBatches(trace.NewPackedSource(p), cfg.MaxRecords, func(b *trace.Batch, k int) error {
		d, err := t.span("core.migrator", "memctrl.access", uint64(k), func() error {
			for j := 0; j < k; j++ {
				_, on := m.Translate(b.Addr[j])
				m.OnAccess(b.Addr[j], on)
				subs := m.EpochTick()
				for subs != nil {
					for _, s := range subs {
						m.SubDone(s.SubIndex)
					}
					next, done, err := m.StepDone()
					if err != nil {
						return err
					}
					if done {
						break
					}
					subs = next
				}
			}
			return nil
		})
		total += d
		return err
	})
	return total, err
}

// regionStream is one region's demand requests in arrival order.
type regionStream struct {
	addr   []uint64
	arrive []int64
	write  []bool
}

// splitRegions turns the captured results into each region's demand stream:
// region-relative addresses, ordered by issue cycle (arrival differs from
// issue by a per-region constant, which does not change the order).
func splitRegions(c *capture, onCap uint64) [2]regionStream {
	idx := make([]int, len(c.machine))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.issue[idx[a]] < c.issue[idx[b]] })
	var out [2]regionStream
	for _, i := range idx {
		r, a := 0, c.machine[i]
		if a >= onCap {
			r, a = 1, a-onCap
		}
		out[r].addr = append(out[r].addr, a)
		out[r].arrive = append(out[r].arrive, c.issue[i])
		out[r].write = append(out[r].write, c.write[i])
	}
	return out
}

// replaySched runs each region's demand stream through a fresh FR-FCFS
// scheduler over a fresh device of the run's geometry (Submit/Advance per
// request, Flush at the end), and the same stream through a bare device's
// Service. It returns the scheduler time (device included) and the device
// time, with the request count.
func replaySched(t *tracer, streams [2]regionStream, devs [2]*dram.Device, cfg sim.Config) (schedD, dramD time.Duration, n uint64, err error) {
	for r, s := range streams {
		if len(s.addr) == 0 {
			continue
		}
		geom, timing := devs[r].Geometry(), devs[r].Timing()
		dev, err := dram.New(geom, timing)
		if err != nil {
			return 0, 0, 0, err
		}
		var free []*sched.Request
		sc, err := sched.New(dev, cfg.Sched, func(q *sched.Request) { free = append(free, q) }, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		d, _ := t.span("sched", "memctrl.access", uint64(len(s.addr)), func() error {
			for i, a := range s.addr {
				var q *sched.Request
				if k := len(free); k > 0 {
					q, free = free[k-1], free[:k-1]
					*q = sched.Request{}
				} else {
					q = new(sched.Request)
				}
				q.ID, q.Addr, q.Write, q.Arrive = uint64(i+1), a, s.write[i], s.arrive[i]
				sc.Advance(q.Arrive)
				sc.Submit(q, q.Arrive)
			}
			sc.Flush()
			return nil
		})
		schedD += d
		bare, err := dram.New(geom, timing)
		if err != nil {
			return 0, 0, 0, err
		}
		d, _ = t.span("dram", "sched", uint64(len(s.addr)), func() error {
			for i, a := range s.addr {
				bare.Service(a, s.write[i], s.arrive[i])
			}
			return nil
		})
		dramD += d
		n += uint64(len(s.addr))
	}
	return schedD, dramD, n, nil
}

// replayStats makes one record's LatencyStat.Add calls — end-to-end and
// DRAM latency, each into the all-regions and the per-region accumulator —
// for every captured result.
func replayStats(t *tracer, c *capture, onCap uint64) time.Duration {
	var all, on, off, dAll, dOn, dOff stats.LatencyStat
	d, _ := t.span("stats", "memctrl.access", uint64(len(c.lat)), func() error {
		for i, l := range c.lat {
			v := int64(l)
			all.Add(v)
			dAll.Add(v)
			if c.machine[i] < onCap {
				on.Add(v)
				dOn.Add(v)
			} else {
				off.Add(v)
				dOff.Add(v)
			}
		}
		return nil
	})
	return d
}

// ---- workloads ----

func traceReplay(ctx context.Context, o options, t *tracer) error {
	cfg := replayConfig(o)
	n := cfg.MaxRecords
	p, genD, packD, err := genAndPack(t, "SPEC2006", o.seed, n)
	if err != nil {
		return err
	}
	t.set("workload.gen_ns_per_record", nsPer(genD, n))
	t.set("trace.pack_ns_per_record", nsPer(packD, n))
	t.set("trace.packed_bytes_per_record", float64(p.EncodedBytes())/float64(n))
	r := &singleRun{o: o, name: o.workload, trace: "SPEC2006", cfg: cfg, packed: p}
	want, err := expected(ctx, r, r.key(), o)
	if err != nil {
		return err
	}

	// Alternate untraced sim.Run and the traced loop.
	var untraced, traced []time.Duration
	var lr loopResult
	c := &capture{}
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		rep, err := r.rep(ctx, i)
		if err != nil {
			return err
		}
		untraced = append(untraced, time.Since(start))
		t.check("sim.Run output", rep.outputs[r.key()], want)
		runtime.GC()
		// The first traced loop captures the stream for the lower-layer
		// replays; the second, without the capture callback, is budgeted.
		var cb func(memctrl.AccessResult)
		if i == 0 {
			cb = c.add
		}
		l, err := tracedLoop(t, p, cfg, nil, cb)
		if err != nil {
			return err
		}
		traced = append(traced, l.wall)
		if i == 1 {
			lr = l
		}
		got, err := digest(l.res)
		if err != nil {
			return err
		}
		t.check("traced loop output", got, want)
	}
	t.set("budget.tracing_overhead_pct", overheadPct(medianDur(untraced), medianDur(traced)))

	// CPU profile of the timed region only: one untraced sim.Run, after
	// set-up, folded by package.
	prof, err := profileRun(o, func() error { _, err := r.rep(ctx, 0); return err })
	if err != nil {
		return err
	}
	t.profile = prof

	onCap := cfg.Geometry.OnPackageCapacity
	coreD, err := replayMigrator(t, p, cfg)
	if err != nil {
		return err
	}
	schedD, dramD, nReq, err := replaySched(t, splitRegions(c, onCap), lr.devs, cfg)
	if err != nil {
		return err
	}
	statsD := replayStats(t, c, onCap)
	nCap := uint64(len(c.lat))

	// Scale the replays' per-record costs to the whole run.
	perRun := func(d time.Duration, k uint64) time.Duration { return time.Duration(nsPer(d, k) * float64(n)) }
	coreRun, schedRun, dramRun, statsRun := perRun(coreD, n), perRun(schedD, nReq), perRun(dramD, nReq), perRun(statsD, nCap)
	memSelf := lr.acc - coreRun - schedRun - statsRun
	// sim.Run's own loop: the untraced run minus what the traced loop
	// attributes to construction, decode and access.
	loopSelf := medianDur(untraced) - lr.newHub - lr.decode - lr.acc

	t.set("trace.decode_ns_per_record", nsPer(lr.decode, n))
	t.set("core.migrator_ns_per_record", nsPer(coreD, n))
	t.set("sched.ns_per_request", nsPer(schedD, nReq))
	t.set("dram.service_ns_per_burst", nsPer(dramD, nReq))
	t.set("stats.ns_per_record", nsPer(statsD, nCap))
	t.set("memctrl.access_ns_per_record", nsPer(lr.acc, n))
	t.set("memctrl.self_ns_per_record", nsPer(memSelf, n))
	t.set("memctrl.new_ms", float64(lr.newHub.Microseconds())/1000)
	t.set("sim.loop_ns_per_record", nsPer(loopSelf, n))
	setReportMetrics(t, lr.res.Report)
	hits, _, _, bursts := lr.devs[0].Stats()
	h2, _, _, b2 := lr.devs[1].Stats()
	if bursts+b2 > 0 {
		t.set("dram.row_hit_rate", float64(hits+h2)/float64(bursts+b2))
	}

	t.wall = lr.wall
	t.row("memctrl.new", lr.newHub, "span around memctrl.NewHub")
	t.row("trace.decode", lr.decode, "spans around PackedSource.NextBatch")
	t.row("core", coreRun, "Migrator replay on the phys stream, scaled to the run")
	t.row("sched (self)", schedRun-dramRun, "Scheduler replay minus its dram child")
	t.row("dram", dramRun, "Device.Service replay on the machine stream")
	t.row("stats", statsRun, "LatencyStat.Add replay on captured latencies")
	t.row("memctrl (self)", memSelf, "Hub.Access spans minus core, sched, stats")
	t.row("sim.loop (flush)", lr.flush, "span around Hub.Flush")
	return nil
}

// setReportMetrics copies the simulated counts of a report.
func setReportMetrics(t *tracer, rep memctrl.Report) {
	t.set("core.swaps_completed", float64(rep.Migration.SwapsCompleted))
	t.set("core.epochs", float64(rep.Migration.Epochs))
	t.set("sched.queue_mean_cycles_on", rep.OnQueueMean)
	t.set("sched.queue_mean_cycles_off", rep.OffQueueMean)
	t.set("memctrl.on_package_share", rep.OnShare)
}

// expected returns the digest output key must have: the pin, or the
// cross-path reference on a held-out seed.
func expected(ctx context.Context, r run, key string, o options) (string, error) {
	if pin := pinned(key, o.scale); pin != "" {
		return pin, nil
	}
	return r.reference(ctx, key)
}

func traceSharded(ctx context.Context, o options, t *tracer) error {
	cfg := shardedConfig(o)
	n := cfg.MaxRecords
	p, genD, packD, err := genAndPack(t, "pgbench", o.seed, n)
	if err != nil {
		return err
	}
	t.set("workload.gen_ns_per_record", nsPer(genD, n))
	t.set("trace.pack_ns_per_record", nsPer(packD, n))
	t.set("trace.packed_bytes_per_record", float64(p.EncodedBytes())/float64(n))
	on := &singleRun{o: o, name: o.workload, trace: "pgbench", cfg: cfg, packed: p}
	offCfg := cfg
	offCfg.Metrics, offCfg.EpochSeries = false, 0
	off := &singleRun{o: o, name: o.workload, trace: "pgbench", cfg: offCfg, packed: p}
	want, err := expected(ctx, on, on.key(), o)
	if err != nil {
		return err
	}

	// Parallel sim.Run with obs on and off, alternated, then the traced
	// serial loop over the same two-channel hub.
	var onD, offD, serial, plain []time.Duration
	var lr loopResult
	for i := 0; i < 3; i++ {
		// Tracing overhead: the traced serial loop against its untraced
		// twin.
		d, err := serialLoop(p, cfg)
		if err != nil {
			return err
		}
		plain = append(plain, d)
		for _, r := range []*singleRun{on, off} {
			runtime.GC()
			start := time.Now()
			rep, err := r.rep(ctx, i)
			if err != nil {
				return err
			}
			if r == on {
				onD = append(onD, time.Since(start))
				t.check("sim.Run output", rep.outputs[r.key()], want)
			} else {
				offD = append(offD, time.Since(start))
			}
		}
		runtime.GC()
		regs := make([]*obs.Registry, cfg.Channels)
		for j := range regs {
			regs[j] = obs.NewRegistry()
			regs[j].EnableSeries(cfg.EpochSeries)
		}
		l, err := tracedLoop(t, p, cfg, regs, nil)
		if err != nil {
			return err
		}
		serial = append(serial, l.wall)
		if i == 0 {
			lr = l
		}
	}
	par := medianDur(onD)
	t.set("obs.overhead_pct", overheadPct(medianDur(offD), par))
	t.set("obs.snapshot_ms", float64(lr.pubs.Microseconds())/1000)
	t.set("sim.shard_speedup", float64(medianDur(serial))/float64(par))
	t.set("trace.decode_ns_per_record", nsPer(lr.decode, n))
	t.set("memctrl.access_ns_per_record", nsPer(lr.acc, n))
	t.set("memctrl.new_ms", float64(lr.newHub.Microseconds())/1000)
	// The serial loop is a different schedule of the same shards: its
	// simulated report must equal the parallel run's.
	ref, err := sim.RunContext(ctx, trace.NewPackedSource(p), cfg)
	if err != nil {
		return err
	}
	gotRep, _ := digest(lr.res.Report)
	wantRep, _ := digest(ref.Report)
	t.check("serial two-channel report", gotRep, wantRep)
	setReportMetrics(t, ref.Report)
	t.set("budget.tracing_overhead_pct", overheadPct(medianDur(plain), medianDur(serial)))

	t.wall = lr.wall
	t.row("memctrl.new", lr.newHub, "span around memctrl.NewHub (2 shards)")
	t.row("trace.decode", lr.decode, "spans around PackedSource.NextBatch")
	t.row("memctrl.access", lr.acc, "spans around serial Hub.Access on the 2-channel hub")
	t.row("memctrl.flush", lr.flush, "span around Hub.Flush")
	t.row("obs.snapshot", lr.pubs, "span around Hub.PublishObs + Registry.Snapshot")
	t.notes = append(t.notes, fmt.Sprintf("parallel sim.Run %.3f s (obs on) vs %.3f s (obs off); serial traced loop %.3f s",
		par.Seconds(), medianDur(offD).Seconds(), medianDur(serial).Seconds()))
	return nil
}

// serialLoop is tracedLoop without spans: the untraced twin for the
// tracing-overhead estimate.
func serialLoop(p *trace.Packed, cfg sim.Config) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	regs := make([]*obs.Registry, cfg.Channels)
	for j := range regs {
		regs[j] = obs.NewRegistry()
		regs[j].EnableSeries(cfg.EpochSeries)
	}
	mcfg, hcfg := hubConfig(cfg)
	hcfg.ShardObs = regs
	hub, err := memctrl.NewHub(mcfg, hcfg, nil)
	if err != nil {
		return 0, err
	}
	n := uint64(0)
	err = drainBatches(trace.NewPackedSource(p), cfg.MaxRecords, func(b *trace.Batch, k int) error {
		for j := 0; j < k; j++ {
			if err := hub.Access(b.Addr[j], b.Write[j], int64(b.Cycle[j])); err != nil {
				return err
			}
			if n++; n == cfg.Warmup {
				hub.ResetStats()
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	hub.Flush()
	hub.PublishObs()
	for _, reg := range regs {
		reg.Snapshot()
	}
	return time.Since(start), hub.Err()
}

func traceTable4(ctx context.Context, o options, t *tracer) error {
	records := table4Records / o.scale
	seed := table4Seed(o.seed)
	names := workload.Names()
	grid := table4Grid()
	start := time.Now()

	// Set-up: generate and pack each trace once, as the driver does.
	packed := make([]*trace.Packed, len(names))
	var genD, packD time.Duration
	var bytes uint64
	for i, name := range names {
		p, g, pk, err := genAndPack(t, name, seed, records)
		if err != nil {
			return err
		}
		packed[i], bytes = p, bytes+p.EncodedBytes()
		genD, packD = genD+g, packD+pk
	}
	total := records * uint64(len(names))
	t.set("workload.gen_ns_per_record", nsPer(genD, total))
	t.set("trace.pack_ns_per_record", nsPer(packD, total))
	t.set("trace.packed_bytes_per_record", float64(bytes)/float64(total))

	// The sweep: every cell replays its packed trace through sim.Run on
	// two goroutines; each cell's controller construction is measured
	// beside it.
	cellD := make([]time.Duration, len(grid))
	newD := make([]time.Duration, len(grid))
	results := make([]sim.Result, len(grid))
	sweepStart := time.Now()
	err := forEach(len(grid), func(i int) error {
		cfg := grid[i].config(records)
		s := time.Now()
		if _, err := newHub(cfg, nil); err != nil {
			return err
		}
		newD[i] = time.Since(s)
		s = time.Now()
		res, err := sim.RunContext(ctx, trace.NewPackedSource(packed[grid[i].wl]), cfg)
		cellD[i] = time.Since(s)
		results[i] = res
		return err
	})
	if err != nil {
		return err
	}
	sweep := time.Since(sweepStart)
	t.wall = time.Since(start)
	for i := range grid {
		t.spans = append(t.spans, spanRec{Name: "sim.Run", Parent: "experiments.cell", DurNs: cellD[i].Nanoseconds(), Count: records},
			spanRec{Name: "memctrl.new", Parent: "experiments.cell", DurNs: newD[i].Nanoseconds()})
	}

	// Correctness: the benchmark's sweep must reproduce Table4Data's rows;
	// the untraced Table4Data call also gives the tracing overhead.
	got, err := digest(table4Rows(grid, results))
	if err != nil {
		return err
	}
	runtime.GC()
	s := time.Now()
	rows, err := experiments.Table4Data(ctx, table4Params(o, seed))
	if err != nil {
		return err
	}
	untraced := time.Since(s)
	want, err := digest(rows)
	if err != nil {
		return err
	}
	if pin := pinned(table4Key(seed), o.scale); pin != "" {
		t.check("Table4Data rows vs pin", want, pin)
	}
	t.check("traced sweep rows vs Table4Data", got, want)
	t.set("budget.tracing_overhead_pct", overheadPct(untraced, t.wall))

	var sumCell, sumNew time.Duration
	secs := make([]float64, len(grid))
	var on float64
	var rep memctrl.Report
	for i := range grid {
		sumCell += cellD[i]
		sumNew += newD[i]
		secs[i] = cellD[i].Seconds()
		on += results[i].Report.OnShare
		rep.Migration.Merge(results[i].Report.Migration)
	}
	sort.Float64s(secs)
	t.set("experiments.cell_s_p50", median(secs))
	t.set("experiments.cell_s_max", secs[len(secs)-1])
	t.set("experiments.parallel_efficiency", float64(sumCell+sumNew)/float64(parallelism*sweep))
	t.set("memctrl.new_ms", float64(sumNew.Microseconds())/1000/float64(len(grid)))
	t.set("memctrl.on_package_share", on/float64(len(grid)))
	t.set("core.swaps_completed", float64(rep.Migration.SwapsCompleted))
	t.set("core.epochs", float64(rep.Migration.Epochs))

	// Parallel time is budgeted in goroutine-seconds halved: two
	// goroutines share the sweep's wall.
	half := func(d time.Duration) time.Duration { return d / parallelism }
	idle := parallelism*sweep - sumCell - sumNew
	t.row("workload.gen", 2*genD, "span around Generator.NextBatch, twice: alone and inside Pack")
	t.row("trace.pack", packD, "span around trace.Pack minus generation")
	t.row("memctrl.new", half(sumNew), "span around memctrl.NewHub per cell, /2 goroutines")
	t.row("sim.Run (cells)", half(sumCell), "span around sim.Run per cell, /2 goroutines")
	t.row("experiments (idle)", half(idle), "goroutine time outside any cell, /2")
	return nil
}

func traceFleet(ctx context.Context, o options, t *tracer) error {
	ri, err := setupFleet(ctx, o)
	if err != nil {
		return err
	}
	r := ri.(*fleetRun)
	// The fleet must equal the same cells run in-process, on every seed;
	// on a pinned seed the in-process results must also equal the pin.
	want, err := r.reference(ctx, r.key())
	if err != nil {
		return err
	}
	if pin := pinned(r.key(), o.scale); pin != "" {
		t.check("in-process results vs pin", want, pin)
	}

	// Generation alone, for each distinct trace the workers drive inline.
	var genD time.Duration
	var genN uint64
	for i := 0; i < len(r.cells); i += 3 {
		c := r.cells[i]
		gen, err := workload.NewMemory(c.Workload, c.Seed)
		if err != nil {
			return err
		}
		d, err := t.span("workload.gen", "setup", c.Records, func() error { return drainBatches(gen, c.Records, nil) })
		if err != nil {
			return err
		}
		genD, genN = genD+d, genN+c.Records
	}
	t.set("workload.gen_ns_per_record", nsPer(genD, genN))

	// The fleet sweep, untraced and traced (the traced one is wrapped in a
	// single span: dsweep cannot be entered from outside).
	runtime.GC()
	s := time.Now()
	if _, err := r.rep(ctx, 0); err != nil {
		return err
	}
	untraced := time.Since(s)
	runtime.GC()
	var sw fleetSweep
	fleetD, err := t.span("dsweep.sweep", "", 0, func() error {
		var err error
		sw, err = r.sweep(ctx)
		return err
	})
	if err != nil {
		return err
	}
	got, err := digest(sw.results)
	if err != nil {
		return err
	}
	t.check("fleet results vs in-process", got, want)
	t.set("budget.tracing_overhead_pct", overheadPct(untraced, fleetD))
	t.set("dsweep.takeovers", float64(sw.stats.Takeovers))
	if sw.stats.Takeovers+sw.stats.Failed > 0 {
		t.check("fleet takeovers+abandoned", strconv.Itoa(sw.stats.Takeovers+sw.stats.Failed), "0")
	}
	prom := parseProm(sw.metrics)
	t.set("dsweep.shipped_mib", prom["dsweep_checkpoint_bytes_sum"]/(1<<20))
	t.set("dsweep.heartbeat_rtt_us_p50", promQuantile(prom, "dsweep_heartbeat_rtt_us", 0.5))

	// The same cells in-process on two goroutines, generator-driven, at
	// the coordinator's default checkpoint cadence (records/8).
	sizes := make([][]int, len(r.cells))
	runtime.GC()
	ipD, err := t.span("in-process", "", 0, func() error {
		_, err := r.inProcess(ctx,
			func(cfg sim.Config) uint64 { return max(cfg.MaxRecords/8, 1) },
			func(i int) func([]byte, uint64) error {
				return func(data []byte, _ uint64) error { sizes[i] = append(sizes[i], len(data)); return nil }
			})
		return err
	})
	if err != nil {
		return err
	}
	var ckpts, ckptBytes int
	for _, ss := range sizes {
		for _, b := range ss {
			ckpts, ckptBytes = ckpts+1, ckptBytes+b
		}
	}
	if ckpts > 0 {
		t.set("snap.bytes_per_checkpoint", float64(ckptBytes)/float64(ckpts))
	}
	t.set("dsweep.overhead_pct", overheadPct(ipD, fleetD))

	// Controller checkpoint encode at fleet cadence, and the alloy-pred
	// cells' lookups replayed through a fresh Alloy.
	var encD, lookD time.Duration
	var encN int
	var lookN uint64
	var sch scheme.Stats
	for i, c := range r.cells {
		d, k, err := encodeAtCadence(t, r.cfgs[i], c.Workload, c.Seed)
		if err != nil {
			return err
		}
		encD, encN = encD+d, encN+k
		if c.Scheme == "" {
			continue
		}
		var res sim.Result
		if err := json.Unmarshal(sw.results[i], &res); err != nil {
			return err
		}
		if res.Report.Scheme != nil {
			sch.Add(res.Report.Scheme.Stats)
		}
		d, err = replayAlloy(t, r.cfgs[i], c.Workload, c.Seed)
		if err != nil {
			return err
		}
		lookD, lookN = lookD+d, lookN+c.Records
	}
	if encN > 0 {
		t.set("snap.encode_ms_per_checkpoint", float64(encD.Microseconds())/1000/float64(encN))
	}
	t.set("scheme.lookup_ns_per_record", nsPer(lookD, lookN))
	t.set("scheme.hit_rate", sch.HitRate())
	var share float64
	for _, raw := range sw.results {
		var res sim.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		share += res.Report.OnShare / float64(len(sw.results))
	}
	t.set("memctrl.on_package_share", share)

	// Budget of the traced fleet wall: the in-process sweep's goroutine
	// time split into checkpoint encode (estimated from the measured
	// per-checkpoint cost) and the rest of the cells, halved for two
	// goroutines; dsweep's own cost is the fleet wall beyond in-process.
	encIP := time.Duration(float64(encD) / float64(max(encN, 1)) * float64(ckpts))
	t.wall = fleetD
	t.row("snap.encode", encIP/parallelism, "Controller.SnapshotTo + Encoder.Finish per checkpoint, /2 goroutines")
	t.row("sim (cells)", ipD-encIP/parallelism, "in-process sweep of the same cells minus encode")
	t.row("dsweep (self)", fleetD-ipD, "fleet wall minus the in-process sweep")
	t.notes = append(t.notes, fmt.Sprintf("fleet %.3f s vs in-process %.3f s; %d checkpoints, %.1f MiB; stats %+v",
		fleetD.Seconds(), ipD.Seconds(), ckpts, float64(ckptBytes)/(1<<20), sw.stats))
	return nil
}

// encodeAtCadence drives cfg's controller with the generator-driven trace
// and, at every checkpoint boundary the fleet uses, encodes shard 0's
// controller state (Controller.SnapshotTo + Encoder.Finish), timing only the
// encode.
func encodeAtCadence(t *tracer, cfg sim.Config, name string, seed int64) (time.Duration, int, error) {
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return 0, 0, err
	}
	hub, err := newHub(cfg, nil)
	if err != nil {
		return 0, 0, err
	}
	every := max(cfg.MaxRecords/8, 1)
	var total time.Duration
	count := 0
	n := uint64(0)
	err = drainBatches(gen, cfg.MaxRecords, func(b *trace.Batch, k int) error {
		for j := 0; j < k; j++ {
			if err := hub.Access(b.Addr[j], b.Write[j], int64(b.Cycle[j])); err != nil {
				return err
			}
			if n++; n%every == 0 {
				d, err := t.span("snap.encode", "dsweep.checkpoint", 0, func() error {
					e := snap.NewEncoder()
					e.Section("ctrl")
					hub.Shard(0).SnapshotTo(e)
					_, err := e.Finish()
					return err
				})
				if err != nil {
					return err
				}
				total += d
				count++
			}
		}
		return nil
	})
	return total, count, err
}

// replayAlloy runs an alloy cell's physical stream through a fresh cache of
// the cell's geometry, timing only Alloy.Lookup.
func replayAlloy(t *tracer, cfg sim.Config, name string, seed int64) (time.Duration, error) {
	g := cfg.Geometry
	a, err := scheme.NewAlloy(cfg.Scheme, g.OnPackageCapacity, 0, g.BurstBytes)
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewMemory(name, seed)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	err = drainBatches(gen, cfg.MaxRecords, func(b *trace.Batch, k int) error {
		d, _ := t.span("scheme.lookup", "memctrl.access", uint64(k), func() error {
			for j := 0; j < k; j++ {
				a.Lookup(b.Addr[j], b.Write[j])
			}
			return nil
		})
		total += d
		return nil
	})
	return total, err
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// promQuantile reads quantile q off a cumulative Prometheus histogram: the
// upper bound of the first bucket holding at least q of the samples.
func promQuantile(prom map[string]float64, name string, q float64) float64 {
	count := prom[name+"_count"]
	if count == 0 {
		return 0
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range prom {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		if b.cum >= q*count {
			return b.le
		}
	}
	return 0
}

// profileRun CPU-profiles fn alone and folds the samples by package.
func profileRun(o options, fn func() error) (map[string]float64, error) {
	dir := o.out
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return foldByPackage(data)
}

func printProfile(w io.Writer, prof map[string]float64) {
	var total float64
	type kv struct {
		pkg string
		s   float64
	}
	var rows []kv
	for k, v := range prof {
		total += v
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	fmt.Fprintf(w, "CPU profile of one untraced timed repetition, flat time by package (%.3f s sampled):\n", total)
	for _, r := range rows {
		if r.s/total < 0.005 {
			continue
		}
		fmt.Fprintf(w, "  %-40s %8.4f s %6.1f%%\n", r.pkg, r.s, r.s/total*100)
	}
}
