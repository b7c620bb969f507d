package core

import "fmt"

// slotOp is the translation-table update a swap step commits on its slot.
type slotOp uint8

const (
	opNone    slotOp = iota // the step moves data only
	opInstall               // the step's page now resides in the slot
	opVacate                // the slot is empty; its own page becomes the Ghost
)

// pBit is the change a swap step makes to its slot row's P bit.
type pBit uint8

const (
	pKeep pBit = iota
	pSet
	pClear
)

// Step is one macro-page copy (or exchange) of a swap plan. Steps execute
// strictly in order; a step's table update applies when its last byte has
// moved, which is what lets the N-1 design keep every page reachable at a
// valid physical location throughout the swap. The update is plain data:
// op on slot (installing page), then the P-bit change on slot's row.
type Step struct {
	Src uint64 // machine page the data moves from
	Dst uint64 // machine page the data moves to

	// Exchange marks an atomic two-way exchange through the controller's
	// line buffers (the N design's primitive); traffic is doubled.
	Exchange bool

	// Critical marks the step that brings the MRU page's data on-package;
	// it is the step live migration accelerates with the F bit and the
	// sub-block bitmap.
	Critical bool

	// OldMachine is the machine page still holding a valid copy of the
	// MRU page while a Critical step is in flight (live routing falls back
	// to it for not-yet-copied sub-blocks).
	OldMachine uint64

	Label string

	op   slotOp
	slot int
	page uint64 // the page opInstall places in slot
	pbit pBit
}

// apply commits the step's table update.
func (st *Step) apply(t *Table) error {
	var err error
	switch st.op {
	case opInstall:
		err = t.Install(st.slot, st.page)
	case opVacate:
		err = t.Vacate(st.slot)
	}
	if err == nil && st.pbit != pKeep {
		t.SetPending(uint64(st.slot), st.pbit == pSet)
	}
	return err
}

// maxSteps bounds a plan's length: case (d) of Fig. 8 has five copies.
const maxSteps = 5

// Plan is a full hottest-coldest swap: the ordered steps plus bookkeeping.
// Steps lives in the plan's own fixed storage, so rebuilding a plan in
// place allocates nothing.
type Plan struct {
	MRU    uint64 // physical macro page being promoted
	Victim int    // on-package slot being demoted
	Steps  []Step
	store  [maxSteps]Step
}

func (p *Plan) add(st Step) { p.Steps = append(p.Steps, st) }

// build fills p with the swap plan that promotes MRU page m and demotes the
// page in slot victim under design d. It is the one plan builder: the
// migrator runs it when a swap starts and again on restore, against the
// table rewound to the swap-start snapshot.
func (p *Plan) build(d Design, t *Table, m uint64, victim int) error {
	if victim < 0 || uint64(victim) >= t.n {
		return fmt.Errorf("core: victim slot %d out of range", victim)
	}
	if s := t.SlotOf(m); s >= 0 {
		return fmt.Errorf("core: MRU page %d already on-package (slot %d)", m, s)
	}
	p.MRU, p.Victim, p.Steps = m, victim, p.store[:0]
	if d == DesignN {
		return p.buildN(t, m, victim)
	}
	return p.buildN1(t, m, victim)
}

// buildN1 is the plan of the N-1 (and Live) designs, covering the four
// cases of Fig. 8 plus the two corner cases (MRU is the Ghost page; MRU's
// swap partner occupies the victim slot). The MRU is first promoted
// through the empty slot; the victim is then demoted into Ω, which leaves
// the victim's slot as the new empty slot.
func (p *Plan) buildN1(t *Table, m uint64, victim int) error {
	er := t.emptyRow
	if er < 0 {
		return fmt.Errorf("core: N-1 plan requires an empty slot")
	}
	if victim == er {
		return fmt.Errorf("core: victim slot %d is the empty slot", victim)
	}
	omega := t.Omega()
	ers := uint64(er) // the empty slot's machine page

	switch t.Classify(m) {
	case OriginalSlow:
		// Cases (a)/(b), steps 1-2 (Fig. 8a/8b): the MRU enters the empty
		// slot; the Ghost's data goes to the MRU's home.
		p.add(Step{Src: m, Dst: ers, Critical: true, OldMachine: m, Label: "OS-MRU -> empty slot",
			op: opInstall, slot: er, page: m, pbit: pSet})
		p.add(Step{Src: omega, Dst: m, Label: "ghost data -> MRU home", slot: er, pbit: pClear})
	case MigratedSlow:
		// Cases (c)/(d), steps 1-3 (Fig. 8c/8d): the partner e in slot m
		// moves to the empty slot, the MRU returns to its own slot, and the
		// Ghost's data goes to e's home.
		e, s := t.resident[m], int(m)
		p.add(Step{Src: m, Dst: ers, Label: "partner -> empty slot",
			op: opInstall, slot: er, page: e, pbit: pSet})
		p.add(Step{Src: e, Dst: m, Critical: true, OldMachine: e, Label: "MS-MRU -> its own slot",
			op: opInstall, slot: s, page: m})
		if s == victim {
			// Corner case: the victim slot held the MRU's own partner, so
			// the empty slot was only a bounce buffer; sending the partner
			// home is the whole demotion.
			p.add(Step{Src: ers, Dst: e, Label: "partner -> its home", op: opVacate, slot: er, pbit: pClear})
			return nil
		}
		p.add(Step{Src: omega, Dst: e, Label: "ghost data -> partner home", slot: er, pbit: pClear})
	case GhostPage:
		// Corner case: the MRU is the Ghost parked in Ω and its own slot is
		// the empty slot. Bring it home.
		if int(m) != er {
			return fmt.Errorf("core: ghost page %d but empty row is %d", m, er)
		}
		p.add(Step{Src: omega, Dst: ers, Critical: true, OldMachine: omega, Label: "ghost MRU -> its own slot",
			op: opInstall, slot: er, page: m})
	default:
		return fmt.Errorf("core: MRU page %d is %v, not promotable", m, t.Classify(m))
	}

	vs := uint64(victim) // the victim slot's machine page
	if q := t.resident[victim]; q != vs {
		// MF victim: the slot holds q >= N and the victim page's data sits
		// at q's home. Park the victim page in Ω, then send q home.
		p.add(Step{Src: q, Dst: omega, Label: "victim-row data -> omega", slot: victim, pbit: pSet})
		p.add(Step{Src: vs, Dst: q, Label: "MF-LRU -> its home", op: opVacate, slot: victim, pbit: pClear})
		return nil
	}
	// OF victim: park it in Ω.
	p.add(Step{Src: vs, Dst: omega, Label: "LRU -> omega", op: opVacate, slot: victim})
	return nil
}

// buildN is the plan of the basic N design, which uses atomic page
// exchanges through the controller (no empty slot, no Ω) and stalls
// execution until the exchange completes.
func (p *Plan) buildN(t *Table, m uint64, victim int) error {
	if t.emptyRow >= 0 {
		return fmt.Errorf("core: N plan requires no empty slot")
	}
	vs := uint64(victim)
	switch t.Classify(m) {
	case OriginalSlow:
		if q := t.resident[victim]; q != vs {
			// MF victim: restore it first, then exchange in the MRU.
			p.add(Step{Src: vs, Dst: q, Exchange: true, Label: "restore MF victim <-> its home",
				op: opInstall, slot: victim, page: vs})
		}
		p.add(Step{Src: vs, Dst: m, Exchange: true, Critical: true, OldMachine: m, Label: "exchange victim slot <-> MRU home",
			op: opInstall, slot: victim, page: m})
	case MigratedSlow:
		// Restoring the MS page is itself the promotion: its partner is
		// evicted by the same exchange, regardless of the chosen victim.
		e := t.resident[m]
		p.Victim = int(m)
		p.add(Step{Src: m, Dst: e, Exchange: true, Critical: true, OldMachine: e, Label: "restore MS MRU <-> partner home",
			op: opInstall, slot: int(m), page: m})
	default:
		return fmt.Errorf("core: MRU page %d is %v, not promotable in N design", m, t.Classify(m))
	}
	return nil
}
