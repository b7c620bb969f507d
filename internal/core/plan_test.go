package core

import "testing"

// planFixture builds a table in a known state:
//   - slot 2 holds page 20 (MF); page 2 is MS at page 20's home
//   - slot 5 empty (page 5 is the Ghost in Ω)
//   - everything else identity-mapped
func planFixture(t *testing.T) *Table {
	t.Helper()
	tb := newTestTable(t, 8, 64, true)
	if err := tb.Vacate(5); err != nil {
		t.Fatal(err)
	}
	// Slot 7 (the initial empty) gets its page back for a clean fixture.
	if err := tb.Install(7, 7); err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// planN1 and planN build a plan the way the migrator does for the N-1 and
// N designs.
func planN1(tb *Table, m uint64, victim int) (*Plan, error) {
	p := new(Plan)
	return p, p.build(DesignN1, tb, m, victim)
}

func planN(tb *Table, m uint64, victim int) (*Plan, error) {
	p := new(Plan)
	return p, p.build(DesignN, tb, m, victim)
}

// execute runs a plan to completion, checking invariants at the end.
func execute(t *testing.T, tb *Table, plan *Plan) {
	t.Helper()
	for _, st := range plan.Steps {
		if err := st.apply(tb); err != nil {
			t.Fatalf("step %q: %v", st.Label, err)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("invariants after swap: %v", err)
	}
}

func TestPlanCaseA_OSMruOFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := planN1(tb, 30, 1) // OS page 30, OF victim slot 1
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("case (a) has %d steps, want 3 (Fig. 8a)", len(plan.Steps))
	}
	if !plan.Steps[0].Critical {
		t.Fatal("first step (MRU -> empty slot) must be the critical one")
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("page 30 -> (%d,%v), want old empty slot 5 on-package", mp, on)
	}
	// Page 5 (old ghost) now lives at page 30's home.
	if mp, on := tb.MachinePage(5); on || mp != 30 {
		t.Fatalf("page 5 -> (%d,%v), want 30's home off-package", mp, on)
	}
	// The victim became the new ghost.
	if tb.Classify(1) != GhostPage || tb.EmptyRow() != 1 {
		t.Fatalf("victim page 1 class %v, empty row %d", tb.Classify(1), tb.EmptyRow())
	}
}

func TestPlanCaseB_OSMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := planN1(tb, 30, 2) // OS page 30, MF victim (slot 2 holds 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 4 {
		t.Fatalf("case (b) has %d steps, want 4 (Fig. 8b)", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("page 30 -> (%d,%v)", mp, on)
	}
	// The evicted MF page 20 went back to its own home.
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want its home", mp, on)
	}
	// Victim page 2 is the new ghost.
	if tb.Classify(2) != GhostPage {
		t.Fatalf("page 2 class %v, want Ghost", tb.Classify(2))
	}
}

func TestPlanCaseC_MSMruOFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := planN1(tb, 2, 1) // MS page 2 (partner 20 in slot 2), OF victim slot 1
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 4 {
		t.Fatalf("case (c) has %d steps, want 4 (Fig. 8c)", len(plan.Steps))
	}
	execute(t, tb, plan)
	// MS page 2 is home again.
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v), want its own slot", mp, on)
	}
	// Its partner 20 moved to the old empty slot (stays on-package).
	if mp, on := tb.MachinePage(20); !on || mp != 5 {
		t.Fatalf("page 20 -> (%d,%v), want slot 5", mp, on)
	}
	if tb.Classify(1) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(1))
	}
}

func TestPlanCaseD_MSMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	// Add a second MF pair: slot 3 holds page 40.
	if err := tb.Install(3, 40); err != nil {
		t.Fatal(err)
	}
	plan, err := planN1(tb, 2, 3) // MS page 2, MF victim (slot 3 holds 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 5 {
		t.Fatalf("case (d) has %d steps, want 5 (Fig. 8d's ten-step walkthrough)", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); !on || mp != 5 {
		t.Fatalf("page 20 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(40); on || mp != 40 {
		t.Fatalf("evicted page 40 -> (%d,%v), want home", mp, on)
	}
	if tb.Classify(3) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(3))
	}
}

func TestPlanGhostMru(t *testing.T) {
	tb := planFixture(t)
	// Page 5 is the ghost; promoting it restores it to its own slot.
	plan, err := planN1(tb, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(5); !on || mp != 5 {
		t.Fatalf("ghost page 5 -> (%d,%v), want its own slot", mp, on)
	}
	if tb.Classify(1) != GhostPage {
		t.Fatalf("victim class %v", tb.Classify(1))
	}
}

func TestPlanGhostMruMFVictim(t *testing.T) {
	tb := planFixture(t)
	plan, err := planN1(tb, 5, 2) // ghost MRU, MF victim (slot 2 holds 20)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(5); !on || mp != 5 {
		t.Fatalf("ghost page 5 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want home", mp, on)
	}
}

func TestPlanMSPartnerVictimCorner(t *testing.T) {
	tb := planFixture(t)
	// MRU = page 2 (MS) and the chosen victim is its own partner's slot.
	plan, err := planN1(tb, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	// Both restored; the empty slot stays where it was.
	if mp, on := tb.MachinePage(2); !on || mp != 2 {
		t.Fatalf("page 2 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(20); on || mp != 20 {
		t.Fatalf("page 20 -> (%d,%v), want home", mp, on)
	}
	if tb.EmptyRow() != 5 {
		t.Fatalf("empty row moved to %d, want 5", tb.EmptyRow())
	}
}

func TestPlanRejections(t *testing.T) {
	tb := planFixture(t)
	if _, err := planN1(tb, 20, 1); err == nil {
		t.Fatal("promoting an already-on-package (MF) page must fail")
	}
	if _, err := planN1(tb, 0, 1); err == nil {
		t.Fatal("promoting an OF page must fail")
	}
	if _, err := planN1(tb, 30, 5); err == nil {
		t.Fatal("the empty slot cannot be the victim")
	}
	if _, err := planN1(tb, 30, 99); err == nil {
		t.Fatal("out-of-range victim accepted")
	}
	nTable := newTestTable(t, 8, 64, false)
	if _, err := planN1(nTable, 30, 1); err == nil {
		t.Fatal("N-1 plan on a table without an empty slot accepted")
	}
	if _, err := planN(tb, 30, 1); err == nil {
		t.Fatal("N plan on a table with an empty slot accepted")
	}
}

func TestPlanNCases(t *testing.T) {
	tb := newTestTable(t, 8, 64, false)
	// OF victim: one exchange.
	plan, err := planN(tb, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || !plan.Steps[0].Exchange {
		t.Fatalf("N design OF case: %+v", plan.Steps)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(30); !on || mp != 1 {
		t.Fatalf("page 30 -> (%d,%v)", mp, on)
	}
	// MF victim: restore exchange + promote exchange.
	plan, err = planN(tb, 40, 1) // slot 1 now holds 30 (MF)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("N design MF case: %d steps, want 2", len(plan.Steps))
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(40); !on || mp != 1 {
		t.Fatalf("page 40 -> (%d,%v)", mp, on)
	}
	if mp, on := tb.MachinePage(30); on || mp != 30 {
		t.Fatalf("page 30 -> (%d,%v), want restored home", mp, on)
	}
	// MS MRU: restoring is the promotion.
	plan, err = planN(tb, 1, 3) // page 1 is MS (partner 40 in slot 1)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, tb, plan)
	if mp, on := tb.MachinePage(1); !on || mp != 1 {
		t.Fatalf("page 1 -> (%d,%v)", mp, on)
	}
}

// TestPlanPendingBitTransitions walks case (b) step by step verifying the
// paper's mid-swap routing guarantees: every page is reachable at a valid
// location after each table update.
func TestPlanPendingBitTransitions(t *testing.T) {
	tb := planFixture(t)
	plan, err := planN1(tb, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Before any step: page 30 off-package at home.
	if mp, on := tb.MachinePage(30); on || mp != 30 {
		t.Fatalf("pre-swap page 30 -> (%d,%v)", mp, on)
	}
	// Step 1 complete: 30 now reachable on-package; the old empty slot's
	// page (5) must still route to Ω via the P bit.
	if err := plan.Steps[0].apply(tb); err != nil {
		t.Fatal(err)
	}
	if mp, on := tb.MachinePage(30); !on || mp != 5 {
		t.Fatalf("after step 1: page 30 -> (%d,%v)", mp, on)
	}
	if !tb.Pending(5) {
		t.Fatal("row 5 P bit not set after step 1")
	}
	if mp, on := tb.MachinePage(5); on || mp != tb.Omega() {
		t.Fatalf("after step 1: page 5 -> (%d,%v), want Ω", mp, on)
	}
	// Step 2 complete: P cleared, page 5 now at 30's home.
	if err := plan.Steps[1].apply(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Pending(5) {
		t.Fatal("row 5 P bit not cleared after step 2")
	}
	if mp, _ := tb.MachinePage(5); mp != 30 {
		t.Fatalf("after step 2: page 5 -> %d, want 30's home", mp)
	}
	// Step 3 complete: victim data in Ω, P(2) set; CAM for 20 still valid.
	if err := plan.Steps[2].apply(tb); err != nil {
		t.Fatal(err)
	}
	if mp, on := tb.MachinePage(2); on || mp != tb.Omega() {
		t.Fatalf("after step 3: page 2 -> (%d,%v), want Ω", mp, on)
	}
	if mp, on := tb.MachinePage(20); !on || mp != 2 {
		t.Fatalf("after step 3: page 20 -> (%d,%v), CAM must keep working", mp, on)
	}
	// Step 4 complete: 20 home, slot 2 empty.
	if err := plan.Steps[3].apply(tb); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
