package memctrl

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"heteromem/internal/core"
	"heteromem/internal/obs"
	"heteromem/internal/power"
)

// hubConfig is smallConfig with migration on, so the sharded tests exercise
// translation, swaps, and copy traffic, not just static routing.
func hubConfig() Config {
	cfg := smallConfig()
	cfg.Migration = &core.Options{Design: core.DesignLive, SwapInterval: 200}
	return cfg
}

// hubTrace materializes a deterministic access stream over the global
// address space: hot pages (migration candidates) plus a uniform tail.
func hubTrace(n int, total uint64) []struct {
	a     uint64
	write bool
	cycle int64
} {
	rng := rand.New(rand.NewSource(42))
	recs := make([]struct {
		a     uint64
		write bool
		cycle int64
	}, n)
	var cycle int64
	for i := range recs {
		cycle += int64(rng.Intn(40)) + 1
		var a uint64
		if rng.Intn(100) < 70 {
			a = uint64(rng.Intn(8)) * (total / 16) // hot pages
		} else {
			a = uint64(rng.Int63n(int64(total)))
		}
		a &^= 63
		recs[i] = struct {
			a     uint64
			write bool
			cycle int64
		}{a: a, write: rng.Intn(4) == 0, cycle: cycle}
	}
	return recs
}

// TestHubRoutingMatchesInterleave checks the routing decode against the
// interleave and mapping, and the one-channel case: the identity route and
// no interconnect hop.
func TestHubRoutingMatchesInterleave(t *testing.T) {
	cfg := hubConfig()
	hub, err := NewHub(cfg, HubConfig{Channels: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gran := cfg.Geometry.MacroPageSize
	for _, a := range []uint64{0, 1, gran - 1, gran, 3 * gran, cfg.Geometry.TotalCapacity - 1} {
		ch, local := hub.Route(a)
		if want := int((a / gran) % 4); ch != want {
			t.Fatalf("Route(%#x) channel = %d, want %d", a, ch, want)
		}
		if back := hub.Interleave().Global(ch, local); back != a {
			t.Fatalf("Global(%d, %#x) = %#x, want %#x", ch, local, back, a)
		}
	}
	if m := hub.Mapping(); m.ChannelOf(5*gran) != 1 {
		t.Fatal("Mapping disagrees with Interleave routing")
	}
	if hub.HopLatency() != DefaultHopLatency {
		t.Fatalf("4-channel hop = %d, want the default %d", hub.HopLatency(), DefaultHopLatency)
	}

	single, err := NewHub(cfg, HubConfig{Channels: 1, HopLatency: 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.Channels() != 1 || single.HopLatency() != 0 {
		t.Fatalf("single hub: channels=%d hop=%d", single.Channels(), single.HopLatency())
	}
	for _, a := range []uint64{0, gran + 1, cfg.Geometry.TotalCapacity - 1} {
		if ch, local := single.Route(a); ch != 0 || local != a {
			t.Fatalf("single hub Route(%#x) = (%d, %#x), want the identity", a, ch, local)
		}
	}
}

// TestHubReportShuffledCompletion is the channel-completion-order contract:
// shards reach their final state from their own access subsequences no
// matter how those subsequences interleave globally (which is exactly what
// varying goroutine completion order does), and the folded report is
// byte-identical.
func TestHubReportShuffledCompletion(t *testing.T) {
	cfg := hubConfig()
	recs := hubTrace(30_000, cfg.Geometry.TotalCapacity)

	run := func(shuffle *rand.Rand) string {
		hub, err := NewHub(cfg, HubConfig{Channels: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-route into per-shard subsequences (preserving per-shard
		// order), then drain the shards in a shuffled round-robin so every
		// trial commits shard work in a different global order.
		batches := make([][]struct {
			local uint64
			write bool
			cycle int64
		}, 4)
		for _, r := range recs {
			ch, local := hub.Route(r.a)
			batches[ch] = append(batches[ch], struct {
				local uint64
				write bool
				cycle int64
			}{local, r.write, r.cycle})
		}
		pos := make([]int, 4)
		for {
			live := make([]int, 0, 4)
			for ch := range batches {
				if pos[ch] < len(batches[ch]) {
					live = append(live, ch)
				}
			}
			if len(live) == 0 {
				break
			}
			ch := live[0]
			if shuffle != nil {
				ch = live[shuffle.Intn(len(live))]
			}
			take := 1
			if shuffle != nil {
				take += shuffle.Intn(64)
			}
			for ; take > 0 && pos[ch] < len(batches[ch]); take-- {
				r := batches[ch][pos[ch]]
				if err := hub.Shard(ch).Access(r.local, r.write, r.cycle); err != nil {
					t.Fatal(err)
				}
				pos[ch]++
			}
		}
		hub.Flush()
		if err := hub.Err(); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(hub.Report())
		return string(b)
	}

	want := run(nil)
	for trial := 0; trial < 5; trial++ {
		if got := run(rand.New(rand.NewSource(int64(trial)))); got != want {
			t.Fatalf("shuffled completion trial %d diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestHubShardObsIsolated: each shard records into its own registry, and
// the merged snapshot carries every shard's counters.
func TestHubShardObsIsolated(t *testing.T) {
	cfg := hubConfig()
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	hub, err := NewHub(cfg, HubConfig{Channels: 2, ShardObs: regs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hubTrace(10_000, cfg.Geometry.TotalCapacity) {
		if err := hub.Access(r.a, r.write, r.cycle); err != nil {
			t.Fatal(err)
		}
	}
	hub.Flush()
	hub.PublishObs()
	merged := obs.MergeSnapshots(regs[0].Snapshot(), regs[1].Snapshot())
	var perShard uint64
	for _, reg := range regs {
		s := reg.Snapshot()
		perShard += s.Get("memctrl.access.on") + s.Get("memctrl.access.off")
	}
	if perShard == 0 {
		t.Fatal("no per-shard accesses counted")
	}
	if got := merged.Get("memctrl.access.on") + merged.Get("memctrl.access.off"); got != perShard {
		t.Fatalf("merged accesses = %d, want %d", got, perShard)
	}
}

// TestHubValidation covers the layout rules in one place.
func TestHubValidation(t *testing.T) {
	cfg := hubConfig()
	if _, err := NewHub(cfg, HubConfig{Channels: 3}, nil); err == nil {
		t.Fatal("channels=3 accepted")
	}
	if _, err := NewHub(cfg, HubConfig{Channels: 2, Interleave: cfg.Geometry.MacroPageSize / 2}, nil); err == nil {
		t.Fatal("sub-page interleave accepted")
	}
	for _, n := range []int{1, 2} {
		if _, err := NewHub(cfg, HubConfig{Channels: n, ShardObs: make([]*obs.Registry, n+1)}, nil); err == nil {
			t.Fatalf("channels=%d: mis-sized ShardObs accepted", n)
		}
		if _, err := NewHub(cfg, HubConfig{Channels: n, ShardPower: make([]*power.Meter, n+1)}, nil); err == nil {
			t.Fatalf("channels=%d: mis-sized ShardPower accepted", n)
		}
	}
	bad := cfg
	bad.Geometry.OnPackageCapacity = cfg.Geometry.MacroPageSize // one stripe cannot split 4 ways
	if _, err := NewHub(bad, HubConfig{Channels: 4}, nil); err == nil {
		t.Fatal("non-stripe-aligned capacity accepted")
	}
}

// TestHubZeroAllocAccess is the allocation gate for the sharded access
// path: for every migration design on 1, 2 and 4 channels, after a warm
// pass it drives 2^20 migrating accesses and counts every heap allocation
// through runtime.MemStats.Mallocs (testing.AllocsPerRun truncates its
// average to an integer, so it would read 0 at 0.03 allocations per
// access). Neither the data path nor a swap allocates: the plan, its copy
// lists and the live-fill bitmap reuse the migrator's storage and the step
// state is recycled. What remains is the first growth of a scheduler
// queue or freelist past its deepest backlog so far, which the gate bounds
// by a constant. The window must complete more swap steps than that
// constant, so even one allocation per step fails it.
// TestSteadyStateQueuesDoNotAllocate in internal/sched checks the queues
// alone at exactly zero.
func TestHubZeroAllocAccess(t *testing.T) {
	const growth = 64
	// As testing.AllocsPerRun does: one P, so no other goroutine's
	// allocation lands in the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		for _, channels := range []int{1, 2, 4} {
			cfg := hubConfig()
			cfg.Migration.Design = design
			regs := make([]*obs.Registry, channels)
			for i := range regs {
				regs[i] = obs.NewRegistry()
			}
			hub, err := NewHub(cfg, HubConfig{Channels: channels, ShardObs: regs}, nil)
			if err != nil {
				t.Fatal(err)
			}
			steps := func() uint64 {
				var n uint64
				for _, reg := range regs {
					n += reg.Counter("memctrl.swap.steps").Value()
				}
				return n
			}
			recs := hubTrace(1<<15, cfg.Geometry.TotalCapacity)
			cycle := int64(0)
			drive := func(n int) {
				for i := 0; i < n; i++ {
					r := recs[i&(len(recs)-1)]
					cycle += 17
					if err := hub.Access(r.a, r.write, cycle); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm pass: freelists and queue buffers fill, swaps complete.
			drive(1 << 20)
			steps0 := steps()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs0 := ms.Mallocs
			drive(1 << 20)
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs - mallocs0
			stepsDone := steps() - steps0
			if stepsDone <= growth {
				t.Fatalf("%v channels=%d: %d swap steps completed; the gate needs more than %d", design, channels, stepsDone, growth)
			}
			if mallocs > growth {
				t.Fatalf("%v channels=%d: %d mallocs over %d completed swap steps, want at most %d in all",
					design, channels, mallocs, stepsDone, growth)
			}
		}
	}
}
