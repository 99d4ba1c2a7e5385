package nbr_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/nbr"
	"repro/internal/smr/smrtest"
)

// TestNeutralizationRollsBack: a reclamation scan raises every other
// thread's flag; the victim's next read discards its value and rolls back.
func TestNeutralizationRollsBack(t *testing.T) {
	const threshold = 4
	a := smrtest.NewArena(2, 1<<12, mem.Reuse)
	s := nbr.New(a, 2, threshold)

	anchor, err := smrtest.AllocShared(s, 0, 42)
	if err != nil {
		t.Fatal(err)
	}

	s.BeginOp(0)
	if _, ok := s.Read(0, anchor, 0); !ok {
		t.Fatal("read before any scan must succeed")
	}
	// T1 fills its retire list, triggering a scan that "signals" T0.
	if err := smrtest.Churn(s, 1, threshold+1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Read(0, anchor, 0); ok {
		t.Fatal("read after neutralization must roll back")
	}
	st := s.Stats().Snapshot()
	if st.Neutralizations == 0 {
		t.Fatal("no neutralization recorded")
	}
	if st.Restarts == 0 {
		t.Fatal("no restart recorded")
	}
	// After the rollback the thread re-enters from its checkpoint.
	s.BeginOp(0)
	if _, ok := s.Read(0, anchor, 0); !ok {
		t.Fatal("read after restart must succeed")
	}
	s.EndOp(0)
}

// TestReservationBlocksReclamation: reserved nodes survive scans until the
// reserving operation ends.
func TestReservationBlocksReclamation(t *testing.T) {
	a := smrtest.NewArena(2, 1<<12, mem.Reuse)
	s := nbr.New(a, 2, 4)

	victim, err := smrtest.AllocShared(s, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginOp(0)
	if !s.Reserve(0, smr.Reservation{victim}) {
		t.Fatal("first reservation must succeed (no pending signal)")
	}

	s.BeginOp(1)
	s.Retire(1, victim)
	s.EndOp(1)
	smrtest.DrainAll(s, 2, 2)
	if st := a.StateOf(victim.Slot()); st != mem.Retired {
		t.Fatalf("reserved node state = %v, want retired", st)
	}

	s.EndOp(0)
	smrtest.DrainAll(s, 2, 2)
	if a.Valid(victim) {
		t.Fatal("victim still valid after reservation dropped")
	}
}

// TestRobustnessBound: the backlog never exceeds threshold + N*K reserved
// slots regardless of churn and stalled readers (the stalled reader gets
// neutralized rather than pinning memory).
func TestRobustnessBound(t *testing.T) {
	const threshold = 16
	a := smrtest.NewArena(2, 1<<14, mem.Reuse)
	s := nbr.New(a, 2, threshold)

	s.BeginOp(0) // stalled inside an operation, holding no reservations
	for _, churn := range []int{200, 800, 3200} {
		if err := smrtest.Churn(s, 1, churn); err != nil {
			t.Fatal(err)
		}
		bound := uint64(threshold + 2*8)
		if got := a.Stats().Retired(); got > bound {
			t.Fatalf("churn %d: retired backlog %d exceeds NBR bound %d", churn, got, bound)
		}
	}
}

// TestProps pins NBR's classification: robust + widely applicable, not
// easily integrated (rollbacks and phase discipline).
func TestProps(t *testing.T) {
	s := nbr.New(smrtest.NewArena(1, 64, mem.Reuse), 1, 0)
	p := s.Props()
	if p.EasyIntegration() {
		t.Error("NBR must not classify as easily integrated")
	}
	if !p.RequiresPhases {
		t.Error("NBR requires the read/write phase discipline")
	}
	if p.Robustness != smr.Robust {
		t.Errorf("NBR robustness = %v, want robust", p.Robustness)
	}
	if p.Applicability != smr.WidelyApplicable {
		t.Errorf("NBR applicability = %v, want wide", p.Applicability)
	}
}
