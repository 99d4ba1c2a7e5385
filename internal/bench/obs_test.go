package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRunObsChainsComplete is the acceptance path: a faulted adaptive
// run must produce one complete causal chain (fault → verdict →
// migration → heal) per injected fault, with finite latencies.
func TestRunObsChainsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("obs run needs a real traffic window")
	}
	res, err := RunObs(ObsConfig{
		Duration: 900 * time.Millisecond,
		// One short pair just to exercise the A/B fields; the delta is
		// timing-sensitive and gated only by the CI smoke run.
		OverheadRounds:        1,
		OverheadRoundDuration: 40 * time.Millisecond,
		Seed:                  42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Timeline.Incidents); got != res.Agg.Shards {
		t.Fatalf("got %d incidents, want one per shard (%d)", got, res.Agg.Shards)
	}
	for _, in := range res.Timeline.Incidents {
		if !in.Complete {
			t.Errorf("shard %d chain incomplete: %+v", in.Shard, in)
		}
		if in.DetectionLatency < 0 || in.ReactionLatency < 0 {
			t.Errorf("shard %d latencies not finite: det=%v rea=%v",
				in.Shard, in.DetectionLatency, in.ReactionLatency)
		}
		if in.Migration == "" || !strings.Contains(in.Migration, "→") {
			t.Errorf("shard %d migration label %q", in.Shard, in.Migration)
		}
	}
	if !res.Complete {
		t.Error("result not marked complete")
	}
	gates := res.Gates()
	if !gates["chains_complete"] || !gates["detection_finite"] {
		t.Errorf("gates: %v", gates)
	}
	if res.Overhead.Rounds != 1 || res.Overhead.RecorderOnMops <= 0 || res.Overhead.RecorderOffMops <= 0 {
		t.Errorf("overhead A/B did not run: %+v", res.Overhead)
	}
	if res.RecorderDrops != 0 {
		t.Errorf("recorder dropped %d events — capacity default too small for the window", res.RecorderDrops)
	}
	if res.Sampler.Ticks == 0 {
		t.Error("sampler health reports zero ticks")
	}
	if len(res.SLO.Points) == 0 {
		t.Error("SLO monitor produced no p99 points")
	}
	if len(res.Episodes) == 0 {
		t.Error("controller logged no migration episodes")
	}

	// The registry's Chrome trace sidecar must be well-formed JSON with
	// span events.
	e, err := LookupExperiment("obs")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := e.Trace(&trace, res); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}
