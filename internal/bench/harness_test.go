package bench_test

import (
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/workload"
)

func samplePipeline() bench.PipelineResult {
	return bench.PipelineResult{
		Blocking:  bench.PipelineArmRow{Arm: "blocking", Requests: 100, ReqPerSec: 400},
		Pipelined: bench.PipelineArmRow{Arm: "pipelined", Requests: 300, ReqPerSec: 1200, ReqPerSecX: 3, Partial: 2},
		Chaos: bench.PipelineChaosRow{
			FaultShard: 1, Requests: 50, Partial: 5, Sheds: 3,
			FaultFired: true, FaultHeals: true, CleanAfterHeal: true, DegradedSeen: true,
		},
		PipelinedBeatsBlocking: true,
		PartialChainsClosed:    true,
	}
}

// documented is the registry's contract as CHANGES.md lists it: every
// experiment's gate names, plus a sample configuration and sample rows
// of the types its Table renders.
var documented = map[string]struct {
	gates        []string
	config, rows any
}{
	"adaptive": {[]string{"improved"}, bench.AdaptiveConfig{Seed: 42, Mix: workload.MixBalanced}, sampleAdaptive()},
	"batch": {[]string{"backlog_bounded", "fused_beats_serial", "zero_alloc"},
		bench.BatchConfig{BacklogOps: 6400}, bench.BatchResult{BestRatio: 2.5, FusedBeatsSerial: true}},
	"chaos": {[]string{"verdicts_consistent"}, bench.ChaosConfig{Seed: 42, Mix: workload.MixBalanced}, bench.ChaosResult{Consistent: true,
		Agg: bench.ChaosAggregate{Shards: 3, Mix: workload.MixBalanced, Seed: 42}}},
	"matrix":  {nil, map[string]int{"k": 300}, core.Matrix{FigureK: 300}},
	"michael": {nil, bench.ThroughputConfig{Threads: 2, Mix: workload.MixUpdateOnly}, sampleRows()},
	"obs": {[]string{"chains_complete", "detection_finite", "overhead_ok"},
		bench.ObsConfig{Shards: 2, Mix: workload.MixBalanced}, bench.ObsResult{Complete: true, RecorderTotal: 12}},
	"pipeline": {[]string{"partial_chains_closed", "pipelined_beats_blocking"},
		bench.PipelineConfig{Shards: 4, ReqMix: workload.ReqMixFanout}, samplePipeline()},
	"resil": {[]string{"amplification_bounded", "goodput_recovered", "hedge_bounds_tail"},
		bench.ResilConfig{Shards: 4, ReqMix: workload.ReqMixFanout}, bench.ResilResult{GoodputX: 2.1, HedgeP99X: 0.4}},
	"scale":   {nil, map[string]any{"sizes": []any{128.0}}, []bench.ScaleRow{{Scheme: "hp", Size: 128, Backlog: 3, PerSize: 3.0 / 128}}},
	"service": {nil, bench.ServiceConfig{Shards: 2, Mix: workload.MixBalanced}, sampleService()},
	"space": {nil, map[string]int{"k": 300},
		[]bench.SpaceRow{{Scheme: "ebr", K: 300, PeakRetired: 299, MaxActive: 4, PerChurn: 299.0 / 300, Safe: true}}},
	"stall": {nil, map[string]int{"steps": 2000}, map[string][]bench.StallSample{"ebr": {{Step: 200, Retired: 190}}}},
	"structures": {nil, map[string]int{"k": 300}, map[string][]*adversary.Outcome{
		"harris": {{Scheme: "hp", Scenario: "stall-traversal", K: 300, MaxActive: 4, Safe: true, Bounded: true}},
	}},
	"throughput": {nil, map[string]any{"mixes": []any{"90/5/5"}}, sampleRows()},
	"traverse": {[]string{"guard_clean", "snapshot_probes_bounded"},
		bench.TraverseConfig{SnapLiveKeys: 2000}, bench.TraverseResult{SwapImprovement: 12, ProbesBounded: true, GuardClean: true}},
}

// TestExperimentRegistry runs every registered experiment's runner over
// stubbed measurements: the BENCH_<name>.json envelope round-trips its
// rows, host and gates; each entry declares exactly its documented gate
// names; and a result with one false gate (or an undeclared one) makes
// the runner fail.
func TestExperimentRegistry(t *testing.T) {
	var want []string
	for name := range documented {
		want = append(want, name)
	}
	sort.Strings(want)
	if got := bench.ExperimentNames(); !slices.Equal(got, want) {
		t.Fatalf("registry %v, documented %v", got, want)
	}
	for _, e := range bench.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			doc := documented[e.Name]
			if !slices.Equal(e.Gates, doc.gates) {
				t.Fatalf("gates %v, documented %v", e.Gates, doc.gates)
			}
			stub := func(gates map[string]bool) bench.Experiment {
				s := e
				s.Run = func(p bench.Params) (any, any, map[string]bool, error) {
					return doc.config, doc.rows, gates, nil
				}
				return s
			}
			pass := map[string]bool{}
			for _, g := range doc.gates {
				pass[g] = true
			}
			dir := t.TempDir()
			var out strings.Builder
			if err := bench.RunExperiment(&out, stub(pass), bench.Params{}, dir); err != nil {
				t.Fatalf("passing run failed: %v\n%s", err, out.String())
			}
			f, err := os.Open(filepath.Join(dir, "BENCH_"+e.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			config := reflect.New(reflect.TypeOf(doc.config))
			rows := reflect.New(reflect.TypeOf(doc.rows))
			a, err := bench.ReadArtifact(f, config.Interface(), rows.Interface())
			if err != nil {
				t.Fatal(err)
			}
			if a.Experiment != e.Name || a.Host.NProc <= 0 || a.Host.GOMAXPROCS <= 0 || a.Host.Go == "" {
				t.Errorf("envelope header: %q %+v", a.Experiment, a.Host)
			}
			if !reflect.DeepEqual(config.Elem().Interface(), doc.config) {
				t.Errorf("config: got %+v\nwant %+v", config.Elem().Interface(), doc.config)
			}
			if !reflect.DeepEqual(a.Gates, pass) {
				t.Errorf("gates: got %v want %v", a.Gates, pass)
			}
			if !reflect.DeepEqual(rows.Elem().Interface(), doc.rows) {
				t.Errorf("rows: got %+v\nwant %+v", rows.Elem().Interface(), doc.rows)
			}
			if e.Trace != nil {
				if _, err := os.Stat(filepath.Join(dir, "BENCH_"+e.Name+"_trace.json")); err != nil {
					t.Errorf("trace sidecar: %v", err)
				}
			}

			for _, g := range doc.gates {
				fail := maps.Clone(pass)
				fail[g] = false
				if err := bench.RunExperiment(io.Discard, stub(fail), bench.Params{}, ""); err == nil || !strings.Contains(err.Error(), g) {
					t.Errorf("false gate %s: runner returned %v", g, err)
				}
			}
			extra := maps.Clone(pass)
			extra["undeclared"] = true
			if err := bench.RunExperiment(io.Discard, stub(extra), bench.Params{}, ""); err == nil {
				t.Error("undeclared gate accepted")
			}
		})
	}
	if _, err := bench.LookupExperiment("nosuch"); err == nil || !strings.Contains(err.Error(), "throughput") {
		t.Errorf("unknown experiment: %v", err)
	}
}

// TestReadArtifactRejectsGarbage checks the envelope reader reports
// malformed and truncated input as such.
func TestReadArtifactRejectsGarbage(t *testing.T) {
	for _, in := range []string{"not json", `{"experiment": "service", "rows": {`} {
		if _, err := bench.ReadArtifact(strings.NewReader(in), nil, nil); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	var rows []bench.ThroughputRow
	if _, err := bench.ReadArtifact(strings.NewReader(`{"rows": {"scheme": 1}}`), nil, &rows); err == nil {
		t.Error("rows of the wrong shape accepted")
	}
}
