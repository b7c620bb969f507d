// Package sched implements the per-region transaction scheduler of the
// heterogeneity-aware memory controller: FR-FCFS (first-ready,
// first-come-first-served — Rixner et al., ISCA'00, the policy the paper's
// trace simulation assumes) over a dram.Device, with a background priority
// class for migration copy traffic.
//
// Background bulk transfers steal idle bus cycles: they are preemptible at
// burst granularity, so they fill the gaps between foreground requests
// without delaying them. Under a saturated channel an aging backstop grants
// the head bulk job one small quantum per aging period so copies always
// make forward progress (a real copy engine is guaranteed some minimum
// service rate too).
//
// Scheduling decisions commit only once every request that could
// participate has arrived: because trace arrivals are monotonic, a decision
// at bus-free cycle f is safe when the global clock has reached f. Until
// then requests wait in the pending queue, which is exactly where queuing
// delay comes from.
package sched

import (
	"fmt"
	"math"
	"sort"

	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// Request is one memory transaction submitted to a region scheduler.
type Request struct {
	ID     uint64
	Arrive int64  // cycle the request reaches the controller
	Addr   uint64 // region-relative machine address
	Write  bool

	// Outputs, valid once the completion callback fires.
	Start   int64 // cycle service began (decision time)
	Done    int64 // cycle the data burst completed
	CoreLat int64 // DRAM-core-only portion (row state + CAS + burst)

	// Attempts counts faulted service attempts so far; on a retry the
	// request re-arrives (Arrive is advanced past the backoff) and goes
	// through arbitration again.
	Attempts int

	// Intrusive caller metadata: the memory controller records the access's
	// origin and routing directly on the request, so it needs no
	// pointer-keyed side table and can pool completed requests.
	Phys    uint64
	Machine uint64
	Issue   int64
	OnPkg   bool

	// Stage and Aux extend the intrusive metadata for the cache schemes'
	// multi-leg accesses (tag probe → data → fill chaining in memctrl):
	// Stage is the controller's leg state, Aux carries the slot address
	// across legs. The default scheme leaves both zero.
	Stage uint8
	Aux   uint64

	// loc is Addr decoded once at Submit (and on restore); the FR-FCFS
	// row-hit scan and the device service both read it.
	loc dram.Location
}

// Latency returns the request's region-internal latency (queue + DRAM).
func (r *Request) Latency() int64 { return r.Done - r.Arrive }

// BulkJob is one background bulk transfer (a migration sub-block copy leg).
type BulkJob struct {
	Tag      uint64 // caller-defined grouping (copy-step ID)
	Duration int64  // total bus cycles the transfer needs
	Earliest int64  // not schedulable before this cycle
	Done     int64  // completion cycle, valid once the callback fires

	// Meta is an opaque caller slot: the memory controller hangs its
	// copy-leg state here instead of keying a side map on the job pointer.
	Meta any

	remaining int64
	enqueued  int64
}

// Config tunes scheduler behaviour.
type Config struct {
	// AgingLimit is how long (cycles) the head background job may starve on
	// a saturated channel before it is granted one quantum ahead of
	// foreground work. Zero selects the default.
	AgingLimit int64
	// StealQuantum is the bus time granted per aging grant. Zero selects
	// the default.
	StealQuantum int64
	// FCFSOnly (ablation) disables the first-ready reordering: requests
	// are served strictly oldest-first.
	FCFSOnly bool
}

// Default background service parameters.
const (
	DefaultAgingLimit   = 4096
	DefaultStealQuantum = 256
)

// Scheduler schedules one region.
type Scheduler struct {
	dev     *dram.Device
	aging   int64
	quantum int64
	onDone  func(*Request)
	onBulk  func(*BulkJob)

	// onFault, when set, decides what happens after the device reports a
	// faulted burst for a request: retry (after backoff cycles of settling
	// time) or give up and deliver the access as-is. The faulted attempt's
	// bus and bank time has been spent either way.
	onFault func(*Request) (retry bool, backoff int64)

	chans []chanState // per channel
	work  int         // outstanding requests + bulk jobs across all channels
	tcl   int64       // cached device TCL for command/data pipelining
	fcfs  bool        // ablation: strict FCFS instead of FR-FCFS

	served      uint64
	bulkServed  uint64
	sumQueueing int64
	agingGrants uint64

	// Optional observability instruments (nil-safe; see SetObs).
	obsGrants *obs.Counter
	obsStolen *obs.Counter
}

// chanState is one channel's queues and decision clocks.
type chanState struct {
	pending queue[*Request] // foreground, arrival order
	bulk    queue[*BulkJob] // background, FIFO
	next    int64           // earliest next command-issue decision
	grant   int64           // last aging-grant time (starvation backstop)
	wake    int64           // no decision can commit before this (0 = unknown)
}

// queue is a head-indexed buffer reused in place: the live items are
// buf[head:]. Removing the oldest item is a head bump; pushing compacts the
// live items to the front instead of growing once at least half the buffer
// is dead head, so a queue of steady depth stops allocating.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) items() []T { return q.buf[q.head:] }

func (q *queue[T]) len() int { return len(q.buf) - q.head }

// push appends v at the tail.
func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// insert places v at live position i, shifting the younger items back.
func (q *queue[T]) insert(i int, v T) {
	q.push(v)
	it := q.items()
	copy(it[i+1:], it[i:len(it)-1])
	it[i] = v
}

// remove deletes the item at live position i by shifting the older items
// forward one slot, so removing the oldest (i = 0) moves nothing.
func (q *queue[T]) remove(i int) {
	h := q.head
	copy(q.buf[h+1:h+i+1], q.buf[h:h+i])
	var zero T
	q.buf[h] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// New builds a scheduler over dev. onDone fires as each request's service
// is finalized (possibly out of submission order); onBulk fires as each
// background job completes. Either callback may be nil.
func New(dev *dram.Device, cfg Config, onDone func(*Request), onBulk func(*BulkJob)) (*Scheduler, error) {
	if dev == nil {
		return nil, fmt.Errorf("sched: nil device")
	}
	aging := cfg.AgingLimit
	if aging <= 0 {
		aging = DefaultAgingLimit
	}
	quantum := cfg.StealQuantum
	if quantum <= 0 {
		quantum = DefaultStealQuantum
	}
	return &Scheduler{
		dev:     dev,
		aging:   aging,
		quantum: quantum,
		fcfs:    cfg.FCFSOnly,
		onDone:  onDone,
		onBulk:  onBulk,
		chans:   make([]chanState, dev.Geometry().Channels),
		tcl:     dev.Timing().TCL,
	}, nil
}

// Submit enqueues a request and advances its channel as far as the global
// clock `now` (>= r.Arrive) allows.
func (s *Scheduler) Submit(r *Request, now int64) {
	r.loc = s.dev.Decode(r.Addr)
	s.insert(r)
	s.drain(r.loc.Channel, now)
}

// SetFaultHandler installs the retry-policy callback consulted when the
// device faults a request's burst (see the onFault field). Pass nil to
// treat faults as silently delivered.
func (s *Scheduler) SetFaultHandler(h func(*Request) (retry bool, backoff int64)) {
	s.onFault = h
}

// insert adds r to its channel queue keeping arrival order. Trace arrivals
// are monotonic so this is normally a tail append; fault retries re-arrive
// in the future and may interleave with younger submissions, so they go
// after every request arriving no later (equal arrivals stay FIFO) to keep
// the queue sorted for the decision-time logic.
func (s *Scheduler) insert(r *Request) {
	s.work++
	q := &s.chans[r.loc.Channel].pending
	it := q.items()
	if n := len(it); n == 0 || it[n-1].Arrive <= r.Arrive {
		q.push(r)
		return
	}
	q.insert(sort.Search(len(it), func(i int) bool { return it[i].Arrive > r.Arrive }), r)
}

// SubmitBulk enqueues a background bulk job on channel ch.
func (s *Scheduler) SubmitBulk(ch int, j *BulkJob, now int64) {
	j.remaining = j.Duration
	j.enqueued = now
	if j.Earliest > j.enqueued {
		j.enqueued = j.Earliest
	}
	s.work++
	s.chans[ch].bulk.push(j)
	s.drain(ch, now)
}

// Advance lets every channel commit decisions up to the global clock `now`;
// call this periodically so background traffic progresses on channels with
// no foreground arrivals.
func (s *Scheduler) Advance(now int64) {
	// Advance runs on every access; when the region is fully idle (the
	// common case for the lightly-loaded side) it is one integer check.
	if s.work == 0 {
		return
	}
	for ch := range s.chans {
		cs := &s.chans[ch]
		// drain recorded when the channel's next decision becomes safe;
		// until the clock gets there a re-drain would just recompute the
		// same early exit.
		if cs.wake > now || cs.pending.len() == 0 && cs.bulk.len() == 0 {
			continue
		}
		s.drain(ch, now)
	}
}

// Flush finalizes everything still queued, as if time ran to infinity, and
// returns the largest completion cycle seen.
func (s *Scheduler) Flush() int64 {
	const horizon = int64(1) << 62
	var last int64
	for ch := range s.chans {
		s.drain(ch, horizon)
		if f := s.dev.BusFree(ch); f > last {
			last = f
		}
	}
	return last
}

// drain commits scheduling decisions on channel ch while they are safe
// (decision time <= now).
func (s *Scheduler) drain(ch int, now int64) {
	cs := &s.chans[ch]
	cs.wake = 0
	for {
		fg := cs.pending.items()
		bg := cs.bulk.items()
		if len(fg) == 0 && len(bg) == 0 {
			return
		}
		busFree := s.dev.BusFree(ch)

		// Commands issue ahead of data: the next scheduling decision happens
		// when the channel can accept another column command, which runs TCL
		// ahead of the data bus. This is what lets row hits stream at burst
		// rate instead of re-paying the CAS latency per request.
		fgAt := int64(math.MaxInt64)
		if len(fg) > 0 {
			fgAt = cs.next
			if fg[0].Arrive > fgAt {
				fgAt = fg[0].Arrive
			}
		}

		// Background cycle-stealing.
		if len(bg) > 0 {
			j := bg[0]
			if j.Earliest <= now {
				bgAt := busFree
				if j.Earliest > bgAt {
					bgAt = j.Earliest
				}
				var quantum int64
				switch {
				case len(fg) == 0:
					// Idle channel: run as much as the clock allows.
					if bgAt < now {
						quantum = min64(j.remaining, now-bgAt)
					}
				case fgAt > bgAt:
					// Fill the gap before the next foreground decision.
					quantum = min64(j.remaining, fgAt-bgAt)
				case now-j.enqueued > s.aging && now-cs.grant > s.aging:
					// Saturated channel: the job has starved a full aging
					// period of wall-clock time; grant one quantum ahead of
					// foreground work so copies keep a minimum service rate.
					// The grant time is per channel so a backlog of equally
					// starved jobs cannot cascade back-to-back.
					quantum = min64(j.remaining, s.quantum)
					j.enqueued = now
					cs.grant = now
					s.agingGrants++
					s.obsGrants.Inc()
				}
				if quantum > 0 {
					s.obsStolen.Add(uint64(quantum))
					end := s.dev.ReserveBus(ch, bgAt, quantum)
					if n := end - s.tcl; n > cs.next {
						cs.next = n
					}
					j.remaining -= quantum
					if j.remaining == 0 {
						j.Done = end
						cs.bulk.remove(0)
						s.bulkServed++
						if s.onBulk != nil {
							s.onBulk(j)
						}
					}
					continue
				}
				if len(fg) == 0 {
					return // wait for the clock to advance
				}
			} else if len(fg) == 0 {
				return
			}
		}

		if len(fg) == 0 || fgAt > now {
			if len(fg) > 0 && len(bg) == 0 {
				// Nothing can commit before fgAt: the queue is sorted by
				// arrival and cs.next only moves through this loop, and with
				// no background job there is no cycle-stealing to revisit.
				cs.wake = fgAt
			}
			return
		}

		// FR-FCFS: among requests that have arrived by the decision time,
		// prefer the oldest row-buffer hit; otherwise the oldest request.
		pick := -1
		if !s.fcfs {
			for i, r := range fg {
				if r.Arrive > fgAt {
					break
				}
				if s.dev.RowHitLoc(r.loc) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			pick = 0
		}
		r := fg[pick]
		done, coreLat, faulted := s.dev.ServiceLoc(r.loc, r.Addr, r.Write, fgAt)
		if n := done - s.tcl; n > cs.next {
			cs.next = n
		}
		cs.pending.remove(pick)
		s.work--
		if faulted && s.onFault != nil {
			if retry, backoff := s.onFault(r); retry {
				// The bad burst consumed real bus time; the retry re-arrives
				// after the backoff and arbitrates like any other request.
				r.Attempts++
				r.Arrive = done + backoff
				s.insert(r)
				continue
			}
		}
		r.Start = fgAt
		r.Done, r.CoreLat = done, coreLat
		s.served++
		s.sumQueueing += r.Start - r.Arrive
		if s.onDone != nil {
			s.onDone(r)
		}
	}
}

// QueueLen returns the total number of waiting foreground requests.
func (s *Scheduler) QueueLen() int {
	n := 0
	for ch := range s.chans {
		n += s.chans[ch].pending.len()
	}
	return n
}

// BulkBacklog returns the number of waiting background jobs.
func (s *Scheduler) BulkBacklog() int {
	n := 0
	for ch := range s.chans {
		n += s.chans[ch].bulk.len()
	}
	return n
}

// SetObs wires optional observability counters: grants counts aging-backstop
// grants (background jobs served ahead of foreground work on a saturated
// channel), stolen counts total bus cycles the background class consumed.
// Either may be nil; recording into nil instruments is a no-op.
func (s *Scheduler) SetObs(grants, stolen *obs.Counter) {
	s.obsGrants = grants
	s.obsStolen = stolen
}

// Stats returns (requests served, bulk jobs served, mean queuing delay).
func (s *Scheduler) Stats() (served, bulkServed uint64, meanQueue float64) {
	if s.served > 0 {
		meanQueue = float64(s.sumQueueing) / float64(s.served)
	}
	return s.served, s.bulkServed, meanQueue
}

// QueueTotals returns the raw (requests served, summed queuing delay)
// accumulators behind Stats. A multi-channel hub folds these across its
// per-channel schedulers so the aggregate mean queue delay is exact rather
// than a mean of per-channel means.
func (s *Scheduler) QueueTotals() (served uint64, sumQueueing int64) {
	return s.served, s.sumQueueing
}

// Device exposes the underlying DRAM model (for stats and power).
func (s *Scheduler) Device() *dram.Device { return s.dev }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
