package policy

import (
	"fmt"

	"heteromem/internal/rng"
	"heteromem/internal/snap"
)

// VictimSelector abstracts the on-package LRU-victim tracker so alternative
// policies can be compared against the paper's clock pseudo-LRU (the
// BenchmarkAblationVictimPolicy study). Selectors are also Snapshotters:
// their recency/hand/PRNG state checkpoints with the migration controller.
type VictimSelector interface {
	// Touch marks slot as recently used.
	Touch(slot int)
	// Pin excludes slot from victim selection; Unpin re-admits it;
	// Pinned reports whether it is excluded.
	Pin(slot int)
	Unpin(slot int)
	Pinned(slot int) bool
	// Victim returns the next victim slot, or -1 if every slot is pinned.
	Victim() int
	// BitCost is the hardware cost in bits.
	BitCost() int

	snap.Snapshotter
}

// ClockPLRU implements VictimSelector.
var _ VictimSelector = (*ClockPLRU)(nil)

// RandomVictim picks victims uniformly at random among unpinned slots.
// It models the cheapest possible hardware (an LFSR) and ignores recency
// entirely — the ablation baseline below which a real policy must not fall.
type RandomVictim struct {
	prng   *rng.Rand
	pinned []bool
}

// NewRandomVictim returns a selector over n slots seeded deterministically.
func NewRandomVictim(n int, seed int64) (*RandomVictim, error) {
	if n <= 0 {
		return nil, fmt.Errorf("policy: random victim needs at least one slot, got %d", n)
	}
	return &RandomVictim{prng: rng.New(uint64(seed)), pinned: make([]bool, n)}, nil
}

// Touch implements VictimSelector (recency is ignored).
func (r *RandomVictim) Touch(int) {}

// Pin implements VictimSelector.
func (r *RandomVictim) Pin(slot int) {
	if slot >= 0 && slot < len(r.pinned) {
		r.pinned[slot] = true
	}
}

// Unpin implements VictimSelector.
func (r *RandomVictim) Unpin(slot int) {
	if slot >= 0 && slot < len(r.pinned) {
		r.pinned[slot] = false
	}
}

// Pinned implements VictimSelector.
func (r *RandomVictim) Pinned(slot int) bool {
	return slot >= 0 && slot < len(r.pinned) && r.pinned[slot]
}

// Victim implements VictimSelector.
func (r *RandomVictim) Victim() int {
	n := len(r.pinned)
	start := r.prng.Intn(n)
	for i := 0; i < n; i++ {
		s := (start + i) % n
		if !r.pinned[s] {
			return s
		}
	}
	return -1
}

// BitCost implements VictimSelector: a 16-bit LFSR.
func (r *RandomVictim) BitCost() int { return 16 }

// FIFOVictim evicts slots in rotation regardless of use — one counter of
// hardware, but it cannot protect a persistently hot slot.
type FIFOVictim struct {
	hand   int
	pinned []bool
}

// NewFIFOVictim returns a selector over n slots.
func NewFIFOVictim(n int) (*FIFOVictim, error) {
	if n <= 0 {
		return nil, fmt.Errorf("policy: fifo victim needs at least one slot, got %d", n)
	}
	return &FIFOVictim{pinned: make([]bool, n)}, nil
}

// Touch implements VictimSelector (recency is ignored).
func (f *FIFOVictim) Touch(int) {}

// Pin implements VictimSelector.
func (f *FIFOVictim) Pin(slot int) {
	if slot >= 0 && slot < len(f.pinned) {
		f.pinned[slot] = true
	}
}

// Unpin implements VictimSelector.
func (f *FIFOVictim) Unpin(slot int) {
	if slot >= 0 && slot < len(f.pinned) {
		f.pinned[slot] = false
	}
}

// Pinned implements VictimSelector.
func (f *FIFOVictim) Pinned(slot int) bool {
	return slot >= 0 && slot < len(f.pinned) && f.pinned[slot]
}

// Victim implements VictimSelector.
func (f *FIFOVictim) Victim() int {
	n := len(f.pinned)
	for i := 0; i < n; i++ {
		s := f.hand
		f.hand = (f.hand + 1) % n
		if !f.pinned[s] {
			return s
		}
	}
	return -1
}

// BitCost implements VictimSelector: one log2(n)-bit counter.
func (f *FIFOVictim) BitCost() int {
	bits := 0
	for n := len(f.pinned) - 1; n > 0; n >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}
