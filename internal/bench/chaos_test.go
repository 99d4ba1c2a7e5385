package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunChaosSeparatesClasses is the subsystem's acceptance shape in
// miniature: a short stall-injection run over the three robustness
// classes must audit EBR as not-robust and HP as robust — the paper's
// prediction, read off live telemetry instead of declared metadata.
func TestRunChaosSeparatesClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs a real traffic window")
	}
	dur := 300 * time.Millisecond
	if raceEnabled {
		// The race detector slows the simulator ~10×; give the audit a
		// window with enough work in it to separate the classes.
		dur = 1200 * time.Millisecond
	}
	res, err := RunChaos(ChaosConfig{
		Schemes:  []string{"ebr", "ibr", "hp"},
		Duration: dur,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byScheme := map[string]ChaosRow{}
	for _, r := range res.Rows {
		byScheme[r.Scheme] = r
	}
	ebr, hp := byScheme["ebr"], byScheme["hp"]
	if ebr.Audited != "not-robust" {
		t.Errorf("ebr audited %q (growth %s, slope %f), want not-robust", ebr.Audited, ebr.Growth, ebr.Slope)
	}
	if hp.Audited != "robust" {
		t.Errorf("hp audited %q (growth %s, plateau %f), want robust", hp.Audited, hp.Growth, hp.Plateau)
	}
	if ebr.Audited == hp.Audited {
		t.Error("audit failed to separate ebr from hp — the whole point")
	}
	for _, r := range res.Rows {
		if !r.Consistent {
			t.Errorf("%s: outcome %s — no scheme should violate its declaration", r.Scheme, r.Outcome)
		}
		if len(r.Series) < 4 {
			t.Errorf("%s: only %d telemetry points", r.Scheme, len(r.Series))
		}
	}
	if len(res.Events) != 3 {
		t.Errorf("events = %d, want one stall per shard", len(res.Events))
	}
	for _, ev := range res.Events {
		if ev.Err != "" {
			t.Errorf("fault %s on shard %d failed: %s", ev.Fault, ev.Shard, ev.Err)
		}
		if ev.Healed == 0 {
			t.Errorf("fault %s on shard %d never healed", ev.Fault, ev.Shard)
		}
	}
	if res.Agg.Ops == 0 {
		t.Error("clients made no progress under chaos")
	}
	if !res.Gates()["verdicts_consistent"] {
		t.Error("verdicts_consistent gate false")
	}

	// The artifact round-trips.
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, "chaos", nil, res, res.Gates()); err != nil {
		t.Fatal(err)
	}
	var back ChaosResult
	rep, err := ReadArtifact(&buf, nil, &back)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "chaos" || len(back.Rows) != 3 || !rep.Gates["verdicts_consistent"] {
		t.Fatalf("artifact round-trip mangled: %+v", back.Agg)
	}

	// And the table renders every verdict.
	var tbl strings.Builder
	WriteChaosTable(&tbl, res)
	for _, want := range []string{"ebr", "hp", "unbounded", "bounded", "confirmed"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestRunChaosChurnFault exercises the close/reopen fault through the
// full experiment: op errors are absorbed, the run completes, and the
// artifact stays well-formed.
func TestRunChaosChurnFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs a real traffic window")
	}
	res, err := RunChaos(ChaosConfig{
		Schemes:  []string{"ebr", "hp"},
		Faults:   []string{"churn"},
		Duration: 150 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.OpErrs == 0 {
		t.Error("churn fault produced no ErrShardClosed results — did it fire?")
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, "chaos", nil, res, res.Gates()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(&buf, nil, &ChaosResult{}); err != nil {
		t.Fatal(err)
	}
}
