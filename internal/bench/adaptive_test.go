package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunAdaptiveEscapesTheStorm is the acceptance scenario: under the
// delayed-release storm an adaptive fleet that starts on EBR must
// migrate off it without losing its role as a service — while the static
// EBR control's backlog stays unbounded — and the post-migration audited
// class must be bounded or linear-in-threads. The migration episode log
// lands in the artifact alongside both verdicts.
func TestRunAdaptiveEscapesTheStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive run needs a real traffic window")
	}
	dur := 700 * time.Millisecond
	if raceEnabled {
		// The race detector slows the simulator ~10×; the run needs
		// fault → verdict → migration → post-migration window to all
		// fit inside the budget.
		dur = 2800 * time.Millisecond
	}
	cfg := AdaptiveConfig{Duration: dur, Seed: 42}
	res, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The control: static ebr under the storm audits not-robust (or ran
	// the heap dry, which is the same verdict with more conviction).
	st := res.Static
	if st.StartScheme != "ebr" || st.FinalScheme != "ebr" || len(st.Migrations) != 0 {
		t.Fatalf("static arm migrated: %+v", st)
	}
	if st.FaultedAudited != "not-robust" {
		t.Errorf("static faulted class = %s (growth %s), want not-robust", st.FaultedAudited, st.FaultedGrowth)
	}

	// The treatment: at least one successful migration off ebr, and a
	// post-migration window that is bounded or linear-in-threads.
	ad := res.Adaptive
	if len(ad.Migrations) == 0 {
		t.Fatal("adaptive arm never migrated")
	}
	first := ad.Migrations[0]
	if first.From != "ebr" || first.Err != "" {
		t.Fatalf("first migration = %+v, want a successful move off ebr", first)
	}
	if first.Audited != "not-robust" {
		t.Errorf("migration evidence = %q, want not-robust", first.Audited)
	}
	if ad.FinalScheme == "ebr" && len(ad.Migrations) == 1 {
		t.Fatalf("adaptive arm still on ebr after %+v", first)
	}
	// The pre-migration window is short by design — the controller acts
	// as soon as the evidence allows — so its batch re-fit may land on
	// either failing class; it must just not look healthy.
	if ad.FaultedFit.Samples >= 4 && ad.FaultedAudited == "robust" {
		t.Errorf("adaptive pre-migration window audited robust over %d samples — what drove the migration?",
			ad.FaultedFit.Samples)
	}
	if ad.FinalGrowth != "bounded" && ad.FinalGrowth != "linear-in-threads" {
		t.Errorf("post-migration growth = %s, want bounded or linear-in-threads", ad.FinalGrowth)
	}
	if !res.Improved {
		t.Errorf("improved = false (static %s vs adaptive %s)", st.FinalAudited, ad.FinalAudited)
	}
	// The migrated shard kept serving: clients made progress in both
	// arms, and the swap did not trip a safety event (OOMs are counted
	// separately as robustness evidence).
	if st.Ops == 0 || ad.Ops == 0 {
		t.Errorf("client progress: static %d, adaptive %d", st.Ops, ad.Ops)
	}
	if len(ad.Series) < 8 {
		t.Errorf("adaptive evidence series has %d points", len(ad.Series))
	}

	// The artifact round-trips with the episode log intact.
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, "adaptive", nil, res, res.Gates()); err != nil {
		t.Fatal(err)
	}
	var back AdaptiveResult
	rep, err := ReadArtifact(&buf, nil, &back)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "adaptive" || !rep.Gates["improved"] || len(back.Adaptive.Migrations) != len(ad.Migrations) {
		t.Fatalf("artifact round-trip mangled: %+v", back)
	}

	// And the table renders both arms and the migration.
	var tbl strings.Builder
	WriteAdaptiveTable(&tbl, cfg, res)
	for _, want := range []string{"static", "adaptive", "ebr", "migration: shard 0", "improved on static: true"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestRunAdaptiveRejectsBadLadder checks validation surfaces before any
// traffic runs.
func TestRunAdaptiveRejectsBadLadder(t *testing.T) {
	if _, err := RunAdaptive(AdaptiveConfig{Ladder: []string{"ebr", "nope"}}); err == nil {
		t.Fatal("unknown ladder rung accepted")
	}
}
