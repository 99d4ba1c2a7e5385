package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// TestThroughputWorkloadMatrix drives the engine through every registered
// key distribution × op-mix schedule on one (scheme, structure) pair.
func TestThroughputWorkloadMatrix(t *testing.T) {
	for _, dist := range workload.DistNames() {
		for _, sched := range workload.ScheduleNames() {
			r, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{
				Threads: 2, OpsPerThread: 1500, KeyRange: 128, Mix: bench.MixBalanced,
				Workload: dist, Schedule: sched, Seed: 11,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", dist, sched, err)
			}
			if r.Workload != dist || r.Schedule != sched {
				t.Errorf("row names %s/%s, want %s/%s", r.Workload, r.Schedule, dist, sched)
			}
			if r.MopsPerSec <= 0 || r.Ops != 3000 {
				t.Errorf("%s/%s: row = %+v", dist, sched, r)
			}
			if r.P50 <= 0 || r.P99 < r.P50 {
				t.Errorf("%s/%s: latency percentiles p50=%v p99=%v", dist, sched, r.P50, r.P99)
			}
		}
	}
}

// TestJSONReportRoundTrip: a measured throughput row survives the
// BENCH_<name>.json envelope unchanged, and the artifact carries the
// workload names and latency fields CI greps for.
func TestJSONReportRoundTrip(t *testing.T) {
	row, err := bench.Throughput("vbr", "michael", bench.ThroughputConfig{
		Threads: 2, OpsPerThread: 1500, KeyRange: 128, Workload: "zipfian", Schedule: "phased", Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := bench.WriteArtifact(&sb, "throughput", nil, []bench.ThroughputRow{row}, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"experiment": "throughput"`, `"workload": "zipfian"`, `"schedule": "phased"`, `"p99_ns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact missing %s:\n%s", want, out)
		}
	}
	var rows []bench.ThroughputRow
	a, err := bench.ReadArtifact(strings.NewReader(out), nil, &rows)
	if err != nil {
		t.Fatal(err)
	}
	if a.Experiment != "throughput" {
		t.Errorf("experiment: %q", a.Experiment)
	}
	if len(rows) != 1 || rows[0] != row {
		t.Errorf("round trip changed the rows:\n got %+v\nwant %+v", rows, row)
	}
}

// TestThroughputRejectsUnknownWorkload: bad registry names surface as
// errors, not silent fallbacks.
func TestThroughputRejectsUnknownWorkload(t *testing.T) {
	if _, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{Workload: "nosuch"}); err == nil {
		t.Error("unknown distribution must error")
	}
	if _, err := bench.Throughput("ebr", "michael", bench.ThroughputConfig{Schedule: "nosuch"}); err == nil {
		t.Error("unknown schedule must error")
	}
}

// TestThroughputLatencyPercentilesOrdered: percentile columns behave on the
// classic path too (uniform/steady via the legacy config shape).
func TestThroughputLatencyPercentilesOrdered(t *testing.T) {
	r, err := bench.Throughput("hp", "michael", bench.ThroughputConfig{
		Threads: 2, OpsPerThread: 2000, KeyRange: 256, Mix: bench.MixReadHeavy, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "uniform" || r.Schedule != "steady" {
		t.Errorf("defaults: %s/%s", r.Workload, r.Schedule)
	}
	if !(r.P50 > 0 && r.P50 <= r.P99) {
		t.Errorf("percentiles p50=%v p99=%v", r.P50, r.P99)
	}
	var sb strings.Builder
	bench.WriteThroughputTable(&sb, []bench.ThroughputRow{r})
	if !strings.Contains(sb.String(), "p99") || !strings.Contains(sb.String(), "uniform/steady") {
		t.Errorf("table rendering lost workload/latency columns:\n%s", sb.String())
	}
}
