package main

import (
	"fmt"

	"repro/internal/store"
)

// gate collects correctness violations. Any violation makes the run
// incorrect: the result reports correct=false and the process exits non-zero.
type gate struct {
	violations []string
}

func (g *gate) failf(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.violations) == 0 }

// conserve checks that the set size is conserved: the prefilled keys plus
// acknowledged inserts minus acknowledged deletes must equal the live count.
// A write the service acknowledged but lost, or applied without
// acknowledging, breaks the equation.
func (g *gate) conserve(where string, prefilled uint64, t tally, live uint64) {
	want := int64(prefilled) + int64(t.inserts) - int64(t.deletes)
	if int64(live) != want {
		g.failf("%s: set size not conserved: prefill %d + inserts %d - deletes %d = %d, but %d keys are live",
			where, prefilled, t.inserts, t.deletes, want, live)
	}
}

// liveKeys counts the store's live keys through ScanShard.
func liveKeys(st *store.Store, keyRange int) (uint64, error) {
	var live uint64
	for s := 0; s < st.Shards(); s++ {
		_, n, err := st.ScanShard(s, 0, int64(keyRange), 0, true)
		if err != nil {
			return 0, fmt.Errorf("scan shard %d: %w", s, err)
		}
		live += n
	}
	return live, nil
}

// safety checks the counters that must stay zero on a correct run: the
// simulated heap's unsafe accesses, faults, life-cycle violations and
// out-of-memory failures, the schemes' stale uses, and the structures'
// traversal guard trips.
func (g *gate) safety(where string, s store.Stats) {
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"mem unsafe accesses", s.UnsafeAccesses},
		{"mem faults", s.Faults},
		{"mem life-cycle violations", s.Violations},
		{"mem OOMs", s.OOMs},
		{"smr stale uses", s.StaleUses},
		{"ds guard trips", s.GuardTrips},
	} {
		if c.n != 0 {
			g.failf("%s: %s = %d, want 0", where, c.name, c.n)
		}
	}
}

// check runs the gate on a quiescent store: safety counters, then
// conservation against the tally of every request sent so far.
func (g *gate) check(where string, st *store.Store, keyRange int, prefilled uint64, t tally) error {
	g.safety(where, st.Stats())
	live, err := liveKeys(st, keyRange)
	if err != nil {
		return err
	}
	g.conserve(where, prefilled, t, live)
	return nil
}

// failures fails the gate when any request failed.
func (g *gate) failures(where string, t tally) {
	if t.failed > 0 {
		g.failf("%s: %d of %d requests failed; first: %v", where, t.failed, t.attempted, t.firstErr)
	}
}
