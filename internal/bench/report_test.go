package bench_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/workload"
)

func sampleRows() []bench.ThroughputRow {
	return []bench.ThroughputRow{
		{
			Scheme: "ebr", Structure: "harris", Threads: 4,
			Mix: workload.MixReadHeavy, Workload: "zipfian", Schedule: "phased",
			KeyRange: 1024, Ops: 80000, Elapsed: 125 * time.Millisecond,
			MopsPerSec: 0.64, P50: 310 * time.Nanosecond, P99: 2150 * time.Nanosecond,
			PeakRetired: 96, Restarts: 0,
		},
		{
			Scheme: "vbr", Structure: "skiplist", Threads: 2,
			Mix: workload.MixUpdateOnly, Workload: "uniform", Schedule: "steady",
			KeyRange: 512, Ops: 40000, Elapsed: 90 * time.Millisecond,
			MopsPerSec: 0.44, PeakRetired: 31, Restarts: 17,
		},
	}
}

// TestWriteThroughputTable checks the rendered table carries every row's
// load-bearing fields, and that unmeasured latencies render as "-" rather
// than a misleading zero.
func TestWriteThroughputTable(t *testing.T) {
	var sb strings.Builder
	bench.WriteThroughputTable(&sb, sampleRows())
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	for _, want := range []string{"scheme", "Mops/s", "peak-retired", "ebr", "harris", "90/5/5",
		"zipfian/phased", "0.640", "310ns", "vbr", "skiplist"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The second row recorded no latency samples; its percentile cells
	// must show the placeholder.
	if !strings.Contains(lines[2], " - ") {
		t.Errorf("unmeasured latency not rendered as '-': %s", lines[2])
	}
}

// TestJSONReportRoundTripStatic: fixed throughput rows — including one
// with no latency samples — round-trip through the envelope field for
// field.
func TestJSONReportRoundTripStatic(t *testing.T) {
	rows := sampleRows()
	var sb strings.Builder
	if err := bench.WriteArtifact(&sb, "throughput", nil, rows, nil); err != nil {
		t.Fatal(err)
	}
	var got []bench.ThroughputRow
	a, err := bench.ReadArtifact(strings.NewReader(sb.String()), nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	if a.Experiment != "throughput" {
		t.Errorf("experiment: %q", a.Experiment)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: %d want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Errorf("row %d: got %+v want %+v", i, got[i], rows[i])
		}
	}
}

func sampleService() bench.ServiceResult {
	return bench.ServiceResult{
		Aggregate: bench.ServiceRow{
			Shards: 2, Schemes: []string{"hp", "ebr"}, Structure: "hashmap",
			Clients: 4, Batch: 16, Workers: 1, Mix: workload.MixBalanced,
			Workload: "zipfian", Schedule: "steady", KeyRange: 4096,
			Ops: 80000, Elapsed: 210 * time.Millisecond, MopsPerSec: 0.38,
			P50: 95 * time.Microsecond, P99: 480 * time.Microsecond,
			PeakRetired: 64, Faults: 0, Restarts: 3,
		},
		PerShard: []bench.ServiceShardRow{
			{Shard: 0, Scheme: "hp", Ops: 41000, MopsPerSec: 0.195, MaxRetired: 16},
			{Shard: 1, Scheme: "ebr", Ops: 39000, MopsPerSec: 0.185, MaxRetired: 48, Restarts: 3},
		},
	}
}

// TestWriteServiceTable checks the per-shard rows and the aggregate lines
// both render.
func TestWriteServiceTable(t *testing.T) {
	var sb strings.Builder
	bench.WriteServiceTable(&sb, sampleService())
	out := sb.String()
	for _, want := range []string{"shard", "hp", "ebr", "aggregate:", "2 shards",
		"4 clients", "zipfian/steady", "p50 95µs", "p99 480µs", "peak-retired 64"} {
		if !strings.Contains(out, want) {
			t.Errorf("service table missing %q:\n%s", want, out)
		}
	}
}

func sampleAdaptive() bench.AdaptiveResult {
	return bench.AdaptiveResult{
		Static: bench.AdaptiveArm{
			Arm: "static", StartScheme: "ebr", FinalScheme: "ebr",
			FaultedAudited: "not-robust", FaultedGrowth: "unbounded",
			FinalAudited: "not-robust", FinalGrowth: "unbounded",
			Migrations: []adapt.Episode{}, PeakRetired: 48211, Ops: 120000,
		},
		Adaptive: bench.AdaptiveArm{
			Arm: "adaptive", StartScheme: "ebr", FinalScheme: "ibr",
			FaultedAudited: "not-robust", FaultedGrowth: "unbounded",
			FinalAudited: "robust", FinalGrowth: "bounded",
			Migrations: []adapt.Episode{{
				Shard: 0, From: "ebr", To: "ibr", At: 190 * time.Millisecond,
				Audited: "not-robust", Reason: "escalate: audited not-robust over 2 windows",
			}},
			PeakRetired: 910, Ops: 310000, OpErrs: 4200,
			P99: 55 * time.Microsecond,
		},
		Improved: true,
	}
}

// TestWriteAdaptiveTable checks both arms, the migration log, and the
// headline all render.
func TestWriteAdaptiveTable(t *testing.T) {
	var sb strings.Builder
	bench.WriteAdaptiveTable(&sb, bench.AdaptiveConfig{Seed: 42}, sampleAdaptive())
	out := sb.String()
	for _, want := range []string{"arm", "static", "adaptive", "ebr", "ibr",
		"not-robust (unbounded)", "robust (bounded)",
		"migration: shard 0 ebr → ibr at 190ms", "ladder [ebr ibr hp] from ebr",
		"800ms window", "seed 42", "improved on static: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("adaptive table missing %q:\n%s", want, out)
		}
	}
}
