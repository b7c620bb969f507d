package sched

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"heteromem/internal/config"
	"heteromem/internal/dram"
	"heteromem/internal/snap"
)

// sortedInsert is the reference arrival-order insert: after every request
// arriving no later than r, as sort.Search places it.
func sortedInsert(q []*Request, r *Request) []*Request {
	i := sort.Search(len(q), func(i int) bool { return q[i].Arrive > r.Arrive })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = r
	return q
}

func ids(q []*Request) []uint64 {
	out := make([]uint64, len(q))
	for i, r := range q {
		out[i] = r.ID
	}
	return out
}

func samePtrs(a, b []*Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRetryInsertMatchesSortSearch: out-of-order arrivals (fault retries)
// land where sort.Search's upper bound puts them, and equal arrivals keep
// their submission order, with the head-indexed queue in any state.
func TestRetryInsertMatchesSortSearch(t *testing.T) {
	s := newSched(t, 1, Config{}, nil, nil)
	prng := rand.New(rand.NewSource(3))
	var ref []*Request
	arrive := int64(0)
	for id := uint64(1); id <= 20_000; id++ {
		r := &Request{ID: id}
		switch k := prng.Intn(10); {
		case k < 6: // trace order
			arrive += int64(prng.Intn(3)) // zero steps make equal arrivals
			r.Arrive = arrive
		default: // a retry re-arriving anywhere in the window, ties included
			r.Arrive = arrive - int64(prng.Intn(40)) + 20
		}
		s.insert(r)
		ref = sortedInsert(ref, r)
		// Serve from the front or the middle, as FR-FCFS does, keeping
		// the backlog around 64.
		if n := len(ref); n > 64 || n > 8 && prng.Intn(3) == 0 {
			i := 0
			if prng.Intn(4) == 0 {
				i = prng.Intn(n)
			}
			s.chans[0].pending.remove(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if got := s.chans[0].pending.items(); !samePtrs(got, ref) {
			t.Fatalf("after request %d: queue %v, want %v", id, ids(got), ids(ref))
		}
	}
}

// TestQueueReuseKeepsOrder drives one queue through many fill/drain
// cycles of varying depth: removals at the head and inside, tail pushes
// that compact the dead head, and growth. Order always matches a plain
// slice, and the buffer stops growing once it has held the peak depth.
func TestQueueReuseKeepsOrder(t *testing.T) {
	var q queue[int]
	var ref []int
	prng := rand.New(rand.NewSource(9))
	next := 0
	peakCap := 0
	for round := 0; round < 2000; round++ {
		depth := 1 + prng.Intn(300)
		for len(ref) < depth {
			q.push(next)
			ref = append(ref, next)
			next++
		}
		for drop := prng.Intn(depth + 1); drop > 0; drop-- {
			i := 0
			if prng.Intn(5) == 0 {
				i = prng.Intn(len(ref))
			}
			q.remove(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		got := q.items()
		if len(got) != len(ref) {
			t.Fatalf("round %d: %d items, want %d", round, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("round %d: item %d = %d, want %d", round, i, got[i], ref[i])
			}
		}
		if round == 1000 {
			peakCap = cap(q.buf)
		}
	}
	if cap(q.buf) != peakCap {
		t.Fatalf("buffer grew from %d to %d after reaching its peak depth", peakCap, cap(q.buf))
	}
}

// replayStream is a deterministic mixed-locality request stream.
func replayStream(n int, gap int64) []Request {
	prng := rand.New(rand.NewSource(11))
	out := make([]Request, n)
	var arrive int64
	var a uint64
	for i := range out {
		arrive += 1 + prng.Int63n(2*gap)
		if prng.Intn(3) == 0 {
			a = uint64(prng.Int63n(1<<26)) &^ 63 // jump: likely a row miss
		} else {
			a += 64 // sequential: likely a row hit
		}
		out[i] = Request{ID: uint64(i + 1), Arrive: arrive, Addr: a, Write: prng.Intn(4) == 0}
	}
	return out
}

type served struct {
	id          uint64
	start, done int64
}

// TestRestoredQueueSamePicks snapshots a scheduler with a backlog mid-run,
// restores it over a restored device, and feeds both the rest of the
// stream: the restored queue must make the same FR-FCFS picks at the same
// times, which needs each restored request's decoded location.
func TestRestoredQueueSamePicks(t *testing.T) {
	geom := dram.Geometry{Channels: 2, BanksPerCh: 8, RowBytes: 8192, BurstBytes: 64}
	build := func(log *[]served) (*dram.Device, *Scheduler) {
		dev, err := dram.New(geom, config.OffPackageTiming())
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(dev, Config{}, func(r *Request) {
			*log = append(*log, served{r.ID, r.Start, r.Done})
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dev, s
	}
	stream := replayStream(20_000, 10) // oversubscribed: a standing backlog
	var logA, logB []served
	devA, a := build(&logA)
	mid := len(stream) / 2
	for i := range stream[:mid] {
		r := stream[i]
		a.Submit(&r, r.Arrive)
	}
	if a.QueueLen() < 10 {
		t.Fatalf("only %d requests queued at the snapshot; the test needs a backlog", a.QueueLen())
	}
	e := snap.NewEncoder()
	e.Section("dev")
	devA.SnapshotTo(e)
	e.Section("sched")
	a.SnapshotTo(e)
	data, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	devB, b := build(&logB)
	d, err := snap.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Section("dev"); err != nil {
		t.Fatal(err)
	}
	if err := devB.RestoreFrom(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Section("sched"); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreFrom(d); err != nil {
		t.Fatal(err)
	}
	logA = logA[:0]
	for i := range stream[mid:] {
		ra, rb := stream[mid+i], stream[mid+i]
		a.Submit(&ra, ra.Arrive)
		b.Submit(&rb, rb.Arrive)
	}
	a.Flush()
	b.Flush()
	if len(logA) != len(logB) {
		t.Fatalf("served %d after the snapshot, restored copy served %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("pick %d: original %+v, restored %+v", i, logA[i], logB[i])
		}
	}
}

// TestSteadyStateQueuesDoNotAllocate replays a long request stream with
// fault retries and background copy jobs through one scheduler, recycling
// requests and jobs through freelists. Once the queues have held their
// peak depth, 2^20 further requests must not allocate at all. Every
// allocation is profiled and counted by stack, so the runtime's own
// background goroutines (the scavenger's timer, say) do not count.
func TestSteadyStateQueuesDoNotAllocate(t *testing.T) {
	freeReqs := make([]*Request, 0, 1<<12)
	freeJobs := make([]*BulkJob, 0, 1<<8)
	s := newSched(t, 2, Config{},
		func(r *Request) { freeReqs = append(freeReqs, r) },
		func(j *BulkJob) { freeJobs = append(freeJobs, j) })
	bursts := 0
	s.Device().SetFaultHook(func(uint64, bool, int64) bool {
		bursts++
		return bursts%97 == 0
	})
	retries := 0
	s.SetFaultHandler(func(r *Request) (bool, int64) {
		retries++
		return r.Attempts < 2, 200
	})
	stream := replayStream(1<<14, 40) // a load the two channels sustain
	var now int64
	peak := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			k := i & (len(stream) - 1)
			src := &stream[k]
			if k == 0 {
				now += 1000
			} else {
				now += src.Arrive - stream[k-1].Arrive
			}
			var r *Request
			if k := len(freeReqs); k > 0 {
				r, freeReqs = freeReqs[k-1], freeReqs[:k-1]
			} else {
				r = new(Request)
			}
			*r = Request{ID: src.ID, Arrive: now, Addr: src.Addr, Write: src.Write}
			s.Advance(now)
			s.Submit(r, now)
			if q := s.QueueLen(); q > peak {
				peak = q
			}
			if i%512 == 0 {
				var j *BulkJob
				if k := len(freeJobs); k > 0 {
					j, freeJobs = freeJobs[k-1], freeJobs[:k-1]
				} else {
					j = new(BulkJob)
				}
				*j = BulkJob{Duration: 2000, Earliest: now}
				s.SubmitBulk((i/512)%2, j, now)
			}
		}
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	run(1 << 16)
	before := schedAllocs()
	run(1 << 20)
	if n := schedAllocs() - before; n != 0 {
		t.Fatalf("%d allocations over 2^20 steady-state requests, want 0", n)
	}
	if peak < 16 {
		t.Fatalf("peak backlog %d; the test needs queues deep enough to compact", peak)
	}
	if _, bulk, _ := s.Stats(); bulk == 0 || retries == 0 {
		t.Fatalf("%d background jobs, %d faulted bursts; the test needs both", bulk, retries)
	}
}

// schedAllocs returns the heap objects allocated so far on a stack through
// this package, from the memory profile (exact while
// runtime.MemProfileRate is 1).
func schedAllocs() int64 {
	runtime.GC() // publish the profile up to now
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		counted := false
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasSuffix(f.Function, ".schedAllocs") {
				counted = false // this function's own bookkeeping
				break
			}
			counted = counted || strings.HasPrefix(f.Function, "heteromem/internal/sched.")
		}
		if counted {
			total += recs[i].AllocObjects
		}
	}
	return total
}
