package trace

import "io"

// Batch is a columnar block of records: four parallel slices, one per
// Record field, always of equal length. The run loop and the workload
// generators exchange records in batches so the per-record cost of the
// Source interface (a dispatch and a 24-byte struct copy per record) is
// paid once per few thousand records instead of once per record.
//
// The caller sizes a batch with Resize to say how many records it wants;
// a BatchSource fills the columns from index 0 and returns how many it
// wrote. Columns may hold stale data past the returned count.
type Batch struct {
	Cycle []uint64
	Addr  []uint64
	CPU   []uint8
	Write []bool
}

// Resize sets the batch length to n records, reusing column capacity when
// it suffices and reallocating (all four columns together) when not.
func (b *Batch) Resize(n int) {
	if cap(b.Cycle) < n {
		b.Cycle = make([]uint64, n)
		b.Addr = make([]uint64, n)
		b.CPU = make([]uint8, n)
		b.Write = make([]bool, n)
		return
	}
	b.Cycle = b.Cycle[:n]
	b.Addr = b.Addr[:n]
	b.CPU = b.CPU[:n]
	b.Write = b.Write[:n]
}

// Len returns the batch length in records.
func (b *Batch) Len() int { return len(b.Cycle) }

// Record returns record i as a Record value.
func (b *Batch) Record(i int) Record {
	return Record{Cycle: b.Cycle[i], Addr: b.Addr[i], CPU: b.CPU[i], Write: b.Write[i]}
}

// head returns a view of the first n records without copying.
func (b *Batch) head(n int) Batch {
	return Batch{Cycle: b.Cycle[:n], Addr: b.Addr[:n], CPU: b.CPU[:n], Write: b.Write[:n]}
}

// copyFrom copies records [from, from+n) of src into b starting at index
// at, and returns n.
func (b *Batch) copyFrom(src *Batch, at, from, n int) int {
	copy(b.Cycle[at:at+n], src.Cycle[from:from+n])
	copy(b.Addr[at:at+n], src.Addr[from:from+n])
	copy(b.CPU[at:at+n], src.CPU[from:from+n])
	copy(b.Write[at:at+n], src.Write[from:from+n])
	return n
}

// BatchSource is a Source that can fill a caller-sized batch in one call.
// NextBatch writes up to b.Len() records into b's columns starting at
// index 0 and returns how many it wrote. Like io.Reader, it may return
// n > 0 alongside a non-nil error (including io.EOF); the caller must
// process the n records before handling the error. It never returns
// (0, nil) when b.Len() > 0, so a read loop always makes progress.
type BatchSource interface {
	Source
	NextBatch(b *Batch) (int, error)
}

// FillBatch adapts any Source to batch reads by calling Next per record.
// It stops at the first error and returns the records filled so far with
// that error (io.EOF included), matching the BatchSource contract.
func FillBatch(src Source, b *Batch) (int, error) {
	n := b.Len()
	for i := 0; i < n; i++ {
		r, err := src.Next()
		if err != nil {
			return i, err
		}
		b.Cycle[i] = r.Cycle
		b.Addr[i] = r.Addr
		b.CPU[i] = r.CPU
		b.Write[i] = r.Write
	}
	return n, nil
}

// ReadBatch fills b from src: through NextBatch when src implements
// BatchSource, through the per-record fallback otherwise.
func ReadBatch(src Source, b *Batch) (int, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(b)
	}
	return FillBatch(src, b)
}

// NextBatch implements BatchSource by copying straight out of the backing
// slice (a scatter from the array-of-structs form into the columns).
func (s *SliceSource) NextBatch(b *Batch) (int, error) {
	n := b.Len()
	if rem := len(s.recs) - s.i; rem < n {
		n = rem
	}
	if n == 0 {
		if b.Len() == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	for k, r := range s.recs[s.i : s.i+n] {
		b.Cycle[k] = r.Cycle
		b.Addr[k] = r.Addr
		b.CPU[k] = r.CPU
		b.Write[k] = r.Write
	}
	s.i += n
	return n, nil
}

// NextBatch implements BatchSource: the budgeted prefix of the batch is
// delegated to the inner source (batched when it supports it).
func (l *Limit) NextBatch(b *Batch) (int, error) {
	n := b.Len()
	if uint64(n) > l.left {
		n = int(l.left)
	}
	if n == 0 {
		if b.Len() == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	var k int
	var err error
	if n == b.Len() {
		k, err = ReadBatch(l.src, b)
	} else {
		sub := b.head(n)
		k, err = ReadBatch(l.src, &sub)
	}
	l.left -= uint64(k)
	return k, err
}
