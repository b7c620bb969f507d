package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heteromem/internal/snap"
)

// checkPins compares the victim selector's pin set with what the full
// rebuild (unpin every live slot, then pin the empty row) leaves: the
// retired slots plus the current empty row, nothing else.
func checkPins(t *testing.T, m *Migrator, when string) {
	t.Helper()
	if err := m.table.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	er := m.table.EmptyRow()
	for s := 0; s < int(m.table.Slots()); s++ {
		if want := m.table.Retired(s) || s == er; m.clock.Pinned(s) != want {
			t.Fatalf("%s: slot %d pinned=%v, full rebuild gives %v (empty row %d)", when, s, m.clock.Pinned(s), want, er)
		}
	}
}

// restoreCopy round-trips m through a snapshot into a fresh migrator.
func restoreCopy(t *testing.T, m *Migrator) *Migrator {
	t.Helper()
	e := snap.NewEncoder()
	e.Section("mig")
	m.SnapshotTo(e)
	data, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMigrator(m.opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Section("mig"); err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreFrom(d); err != nil {
		t.Fatal(err)
	}
	if m2.pinnedRow != m.pinnedRow {
		t.Fatalf("restored pinned row %d, original %d", m2.pinnedRow, m.pinnedRow)
	}
	for s := 0; s < int(m.table.Slots()); s++ {
		if m2.clock.Pinned(s) != m.clock.Pinned(s) {
			t.Fatalf("restored slot %d pinned=%v, original %v", s, m2.clock.Pinned(s), m.clock.Pinned(s))
		}
	}
	return m2
}

// TestIncrementalRepinMatchesRebuild drives every design under each victim
// policy through completed swaps, rolled-back swaps, slot retirements and
// mid-swap snapshot/restores, checking after each that moving the one
// empty-row pin left the same pin set a full rebuild would.
func TestIncrementalRepinMatchesRebuild(t *testing.T) {
	for _, d := range []Design{DesignN, DesignN1, DesignLive} {
		for _, v := range []VictimPolicy{VictimClockPLRU, VictimRandom, VictimFIFO} {
			t.Run(fmt.Sprintf("%v/%d", d, v), func(t *testing.T) {
				m, err := NewMigrator(Options{
					Design: d, Victim: v,
					Slots: 16, TotalPages: 64,
					PageSize: 4096, SubBlockSize: 1024,
					SwapInterval: 40,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkPins(t, m, "new")
				prng := rand.New(rand.NewSource(5))
				var completed, rolledBack, restored, retired int
				for i := 0; i < 40_000; i++ {
					page := uint64(prng.Intn(64))
					if prng.Intn(3) > 0 {
						page = uint64(16 + prng.Intn(12)) // hot off-package set
					}
					phys := page * 4096
					_, on := m.Translate(phys)
					m.OnAccess(phys, on)
					subs := m.EpochTick()
					for step := 0; subs != nil; step++ {
						if step == 1 && prng.Intn(4) == 0 {
							m = restoreCopy(t, m)
							restored++
						}
						if prng.Intn(8) == 0 {
							// Abort mid-step with a few sub-blocks copied.
							if _, err := m.AbortSwap([]int{0, 1}); err != nil {
								t.Fatal(err)
							}
							if err := m.RollbackDone(); err != nil {
								t.Fatal(err)
							}
							rolledBack++
							checkPins(t, m, "rollback")
							break
						}
						for _, sc := range subs {
							m.SubDone(sc.SubIndex)
						}
						next, done, err := m.StepDone()
						if err != nil {
							t.Fatal(err)
						}
						if done {
							completed++
							checkPins(t, m, "swap done")
							break
						}
						subs = next
					}
					// Retire a few live slots at quiescent points; the
					// empty row goes last since the N-1 designs stop
					// swapping without it.
					if i%10_000 == 9_999 {
						s := prng.Intn(16)
						if i == 39_999 && m.table.EmptyRow() >= 0 {
							s = m.table.EmptyRow()
						}
						if !m.table.Retired(s) {
							if _, err := m.RetireSlot(s); err != nil {
								t.Fatal(err)
							}
							retired++
							checkPins(t, m, "retire")
							m = restoreCopy(t, m)
							checkPins(t, m, "restore after retire")
						}
					}
				}
				if completed == 0 || rolledBack == 0 || restored == 0 || retired == 0 {
					t.Fatalf("completed=%d rolledBack=%d restored=%d retired=%d; every path must run",
						completed, rolledBack, restored, retired)
				}
			})
		}
	}
}

// TestMidSwapRestoreKeepsLiveCAM restores a migrator at every step of
// every swap. Mid-swap a page can have copies in two slots, and the CAM
// must point at the live one, as it did before the snapshot.
func TestMidSwapRestoreKeepsLiveCAM(t *testing.T) {
	for _, d := range []Design{DesignN, DesignN1, DesignLive} {
		m := newTestMigrator(t, d, 16)
		prng := rand.New(rand.NewSource(2))
		swaps := 0
		for i := 0; i < 20_000; i++ {
			phys := uint64(8+prng.Intn(24)) << 16
			if prng.Intn(4) == 0 {
				phys = uint64(prng.Intn(64)) << 16
			}
			_, on := m.Translate(phys)
			m.OnAccess(phys, on)
			subs := m.EpochTick()
			if subs != nil {
				swaps++
			}
			for subs != nil {
				m2 := restoreCopy(t, m)
				if !slices.Equal(m2.table.back, m.table.back) {
					t.Fatalf("%v: step %d: restored CAM %v, live CAM %v", d, m.stepIdx, m2.table.back, m.table.back)
				}
				m = m2
				for _, sc := range subs {
					m.SubDone(sc.SubIndex)
				}
				next, done, err := m.StepDone()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				subs = next
			}
			if err := m.table.CheckInvariants(); err != nil {
				t.Fatalf("%v: %v", d, err)
			}
		}
		if swaps == 0 {
			t.Fatalf("%v: no swap ran", d)
		}
	}
}
