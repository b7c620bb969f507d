package sched

import "heteromem/internal/snap"

// SnapshotTo writes the scheduler's dynamic state: per-channel decision
// clocks, the waiting foreground requests and background bulk jobs, and
// the service counters. Requests still in the queue carry no output fields
// yet (Start/Done/CoreLat are set at completion), so their identity,
// arrival, address, and retry count reconstruct them exactly. The device,
// callbacks, and tuning parameters are construction inputs.
func (s *Scheduler) SnapshotTo(e *snap.Encoder) {
	e.U32(uint32(len(s.chans)))
	for ch := range s.chans {
		cs := &s.chans[ch]
		e.I64(cs.next)
		e.I64(cs.grant)
		e.U32(uint32(cs.pending.len()))
		for _, r := range cs.pending.items() {
			e.U64(r.ID)
			e.I64(r.Arrive)
			e.U64(r.Addr)
			e.Bool(r.Write)
			e.U32(uint32(r.Attempts))
		}
		e.U32(uint32(cs.bulk.len()))
		for _, j := range cs.bulk.items() {
			e.U64(j.Tag)
			e.I64(j.Duration)
			e.I64(j.Earliest)
			e.I64(j.remaining)
			e.I64(j.enqueued)
		}
	}
	e.U64(s.served)
	e.U64(s.bulkServed)
	e.I64(s.sumQueueing)
	e.U64(s.agingGrants)
}

// RestoreFrom reads the state written by SnapshotTo into a scheduler built
// over the same device and config, materializing fresh Request and BulkJob
// objects. Callers that keyed auxiliary state on the old pointers reattach
// it through ForEachPending / ForEachBulk.
func (s *Scheduler) RestoreFrom(d *snap.Decoder) error {
	nc := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if nc != len(s.chans) {
		d.Invalid("scheduler has %d channels, snapshot has %d", len(s.chans), nc)
		return d.Err()
	}
	for ch := range s.chans {
		cs := &s.chans[ch]
		*cs = chanState{next: d.I64(), grant: d.I64()}
		nf := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		for i := 0; i < nf; i++ {
			r := &Request{
				ID:     d.U64(),
				Arrive: d.I64(),
				Addr:   d.U64(),
				Write:  d.Bool(),
			}
			r.Attempts = int(d.U32())
			if d.Err() != nil {
				return d.Err()
			}
			r.loc = s.dev.Decode(r.Addr)
			cs.pending.push(r)
		}
		nb := int(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		for i := 0; i < nb; i++ {
			j := &BulkJob{
				Tag:      d.U64(),
				Duration: d.I64(),
				Earliest: d.I64(),
			}
			j.remaining = d.I64()
			j.enqueued = d.I64()
			if d.Err() != nil {
				return d.Err()
			}
			cs.bulk.push(j)
		}
	}
	s.served = d.U64()
	s.bulkServed = d.U64()
	s.sumQueueing = d.I64()
	s.agingGrants = d.U64()
	// The outstanding-work count is derived state; rebuild it from the
	// restored queues rather than serializing it.
	s.work = s.QueueLen() + s.BulkBacklog()
	return d.Err()
}

// ForEachPending visits every waiting foreground request in deterministic
// order (channel ascending, queue position ascending).
func (s *Scheduler) ForEachPending(fn func(ch int, r *Request)) {
	for ch := range s.chans {
		for _, r := range s.chans[ch].pending.items() {
			fn(ch, r)
		}
	}
}

// ForEachBulk visits every waiting background job in deterministic order
// (channel ascending, queue position ascending).
func (s *Scheduler) ForEachBulk(fn func(ch int, j *BulkJob)) {
	for ch := range s.chans {
		for _, j := range s.chans[ch].bulk.items() {
			fn(ch, j)
		}
	}
}
