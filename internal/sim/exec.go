// Executors apply the run loop's batches to the hub's shards. One channel
// runs inline on the feeder goroutine; N channels run in parallel — one
// goroutine per channel — under an epoch-aligned cycle barrier.
//
// Determinism argument. Shards share no mutable state: migration is
// shard-local (the interleave granularity is a multiple of the macro page
// size, so a page never straddles channels) and the cross-channel hop is a
// fixed latency constant folded into each shard's own copy legs. Each
// shard's final state is therefore a pure function of the subsequence of
// trace records routed to it, in trace order — which the feeder preserves —
// and is independent of goroutine scheduling, GOMAXPROCS, and the barrier
// window size. The barrier exists to bound buffering and to give the feeder
// globally consistent points (exact record counts) for warmup resets and
// checkpoints; it never influences results.
package sim

import (
	"fmt"
	"sync"

	"heteromem/internal/memctrl"
	"heteromem/internal/trace"
)

// defaultBarrierWindow is the lockstep epoch, in trace cycles. It only
// needs to be no smaller than the minimum cross-channel latency (the hop)
// for the lockstep reading of the barrier to hold; beyond that it purely
// trades barrier overhead against batch size.
const defaultBarrierWindow = 4096

// barrierWindowHook, when positive, replaces the barrier window. Only the
// window-invariance test sets it.
var barrierWindowHook int64

// executor applies batches of trace records to the hub. feed hands over
// the first k records of b (record base is the run's count before them);
// drain returns once every fed record has been applied, so the feeder may
// reset, checkpoint, or flush; close releases the executor's goroutines.
type executor interface {
	feed(b *trace.Batch, k int, base uint64) error
	drain() error
	close()
}

// newExecutor picks the inline executor for one channel and the barrier
// executor otherwise.
func newExecutor(hub *memctrl.Hub) executor {
	if hub.Channels() == 1 {
		return inline{hub.Shard(0)}
	}
	return newBarrier(hub)
}

// inline applies every record on the feeder goroutine: no goroutine, no
// per-record copy, no barrier.
type inline struct{ ctrl *memctrl.Controller }

func (e inline) feed(b *trace.Batch, k int, base uint64) error {
	for j := 0; j < k; j++ {
		if err := e.ctrl.Access(b.Addr[j], b.Write[j], int64(b.Cycle[j])); err != nil {
			return fmt.Errorf("sim: access %d: %w", base+uint64(j), err)
		}
	}
	return nil
}

func (inline) drain() error { return nil }
func (inline) close()       {}

// shardAccess is one pre-routed trace record: the shard-local address plus
// the original cycle and direction.
type shardAccess struct {
	local uint64
	cycle int64
	write bool
}

// barrier runs one worker goroutine per shard; each owns its controller
// exclusively. Batches are handed over at barrier boundaries and the
// WaitGroup is both the barrier and the memory fence: wg.Wait()
// happens-after every worker's writes, so the feeder may reuse batch
// slices and read errs.
type barrier struct {
	hub      *memctrl.Hub
	window   int64
	work     []chan []shardAccess
	errs     []error
	wg       sync.WaitGroup
	batches  [][]shardAccess
	pending  int
	curEpoch int64
	started  bool
}

func newBarrier(hub *memctrl.Hub) *barrier {
	n := hub.Channels()
	e := &barrier{
		hub:     hub,
		window:  max(defaultBarrierWindow, hub.HopLatency()),
		work:    make([]chan []shardAccess, n),
		errs:    make([]error, n),
		batches: make([][]shardAccess, n),
	}
	if barrierWindowHook > 0 {
		e.window = barrierWindowHook
	}
	for i := 0; i < n; i++ {
		in := make(chan []shardAccess, 1)
		e.work[i] = in
		go func(i int, ctrl *memctrl.Controller, in <-chan []shardAccess) {
			for batch := range in {
				if e.errs[i] == nil {
					for _, a := range batch {
						if err := ctrl.Access(a.local, a.write, a.cycle); err != nil {
							e.errs[i] = err
							break
						}
					}
				}
				e.wg.Done()
			}
		}(i, hub.Shard(i), in)
	}
	return e
}

// feed routes the batch across the per-channel queues. Barrier-epoch
// dispatches happen per record inside the batch, because they depend on
// trace cycles, not record counts.
func (e *barrier) feed(b *trace.Batch, k int, _ uint64) error {
	for j := 0; j < k; j++ {
		cycle := int64(b.Cycle[j])
		// Barrier epoch boundary: all shards drain the previous window
		// before any shard sees the next one.
		epoch := cycle / e.window
		if e.started && epoch != e.curEpoch {
			if err := e.drain(); err != nil {
				return err
			}
		}
		e.curEpoch, e.started = epoch, true
		ch, local := e.hub.Route(b.Addr[j])
		e.batches[ch] = append(e.batches[ch], shardAccess{local: local, cycle: cycle, write: b.Write[j]})
		e.pending++
	}
	return nil
}

func (e *barrier) drain() error {
	if e.pending == 0 {
		return nil
	}
	n := len(e.work)
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		e.work[i] <- e.batches[i]
	}
	e.wg.Wait()
	for i := 0; i < n; i++ {
		if e.errs[i] != nil {
			return fmt.Errorf("sim: channel %d: %w", i, e.errs[i])
		}
		e.batches[i] = e.batches[i][:0]
	}
	e.pending = 0
	return nil
}

func (e *barrier) close() {
	for _, in := range e.work {
		close(in)
	}
}
