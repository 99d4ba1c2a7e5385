package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro"
)

// TestFacadeEndToEnd drives the public surface: heap, scheme, structure,
// the scripted executions and the matrix.
func TestFacadeEndToEnd(t *testing.T) {
	h := repro.NewHeap(repro.HeapConfig{
		Slots:        1 << 12,
		PayloadWords: repro.MaxPayloadWords,
		MetaWords:    repro.SchemeMetaWords,
		Threads:      2,
		Mode:         repro.Reuse,
	})
	s, err := repro.NewScheme("ebr", h, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := repro.NewSet("skiplist", s)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if ok, err := set.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	for k := int64(0); k < 50; k += 2 {
		if ok, err := set.Delete(1, k); err != nil || !ok {
			t.Fatalf("delete(%d) = %v, %v", k, ok, err)
		}
	}
	if ok, err := set.Contains(0, 3); err != nil || !ok {
		t.Fatalf("contains(3) = %v, %v", ok, err)
	}
	if h.Stats().Retires() == 0 {
		t.Fatal("no retirements recorded")
	}
}

// TestFacadeAdversaries runs both scripted executions through the facade.
func TestFacadeAdversaries(t *testing.T) {
	o, err := repro.RunFigure1("hp", 300)
	if err != nil {
		t.Fatal(err)
	}
	if o.Safe {
		t.Error("HP must violate safety in the Figure 1 execution")
	}
	o, err = repro.RunFigure2("ebr")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Safe {
		t.Error("EBR must stay safe in the Figure 2 execution")
	}
}

// TestFacadeMatrix builds the matrix through the facade.
func TestFacadeMatrix(t *testing.T) {
	m, err := repro.BuildERAMatrix(300)
	if err != nil {
		t.Fatal(err)
	}
	if !m.TheoremHolds() {
		t.Fatalf("theorem violated:\n%s", m)
	}
	if len(m.Rows) != len(repro.SchemeNames())-1 { // minus the unsafe baseline
		t.Errorf("matrix has %d rows for %d schemes", len(m.Rows), len(repro.SchemeNames()))
	}
}

// TestFacadeEnumerations checks the name listings and error paths.
func TestFacadeEnumerations(t *testing.T) {
	if len(repro.SchemeNames()) != 11 {
		t.Errorf("SchemeNames = %v, want 11 schemes", repro.SchemeNames())
	}
	if len(repro.StructureNames()) != 8 {
		t.Errorf("StructureNames = %v, want 8 structures", repro.StructureNames())
	}
	h := repro.NewHeap(repro.HeapConfig{Slots: 64, PayloadWords: 2, MetaWords: repro.SchemeMetaWords, Threads: 1})
	if _, err := repro.NewScheme("gc", h, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
	s, err := repro.NewScheme("ebr", h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.NewSet("msqueue", s); err == nil || !strings.Contains(err.Error(), "not a set") {
		t.Errorf("queue accepted as a set: %v", err)
	}
	if _, err := repro.NewSet("nosuch", s); err == nil {
		t.Error("unknown structure accepted")
	}
}

// TestFacadeExperiments exercises the report writer.
func TestFacadeExperiments(t *testing.T) {
	var sb strings.Builder
	if err := repro.WriteExperiments(&sb, 300); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "holds=true") {
		t.Errorf("report:\n%s", sb.String())
	}
}

// TestFacadeStore exercises the sharded service surface: a heterogeneous
// two-shard store through the facade, then a miniature service run with
// its JSON artifact.
func TestFacadeStore(t *testing.T) {
	st, err := repro.NewStore(repro.StoreConfig{
		Shards: []repro.StoreShardSpec{
			{Scheme: "hp", Structure: "hashmap"},
			{Scheme: "ebr", Structure: "hashmap"},
		},
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Insert(7); err != nil || !ok {
		t.Fatalf("insert: %v, %v", ok, err)
	}
	if ok, err := st.Contains(7); err != nil || !ok {
		t.Fatalf("contains: %v, %v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Ops != 2 || stats.Faults != 0 {
		t.Fatalf("stats: ops=%d faults=%d", stats.Ops, stats.Faults)
	}
	if _, err := st.Delete(7); err != repro.ErrStoreClosed {
		t.Fatalf("post-close delete: %v", err)
	}

	res, err := repro.RunService(repro.ServiceConfig{
		Shards: 2, Schemes: []string{"hp", "ebr"}, Clients: 2,
		OpsPerClient: 200, KeyRange: 128, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops != 400 || len(res.PerShard) != 2 {
		t.Fatalf("service: ops=%d shards=%d", res.Aggregate.Ops, len(res.PerShard))
	}
	var sb strings.Builder
	if err := repro.WriteArtifact(&sb, "service", nil, res, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"experiment": "service"`) {
		t.Errorf("artifact:\n%s", sb.String())
	}
}

// TestFacadeExec exercises the scatter-gather surface: an executor over
// a small store serving a multi-key insert, a MultiGet, and a range
// scan; then the pipeline experiment at smoke scale with its artifact.
func TestFacadeExec(t *testing.T) {
	st, err := repro.NewStore(repro.StoreConfig{
		Shards: repro.UniformShards(2, repro.StoreShardSpec{
			Scheme: "ebr", Structure: "michael",
		}),
		KeyRange: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ex, err := repro.NewExecutor(st, repro.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ex.MultiInsert([]int64{3, 40, 77})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Wait(); res.Partial() {
		t.Fatalf("healthy insert partial: %+v", res.ShardErrs)
	}
	h, err = ex.MultiGet([]int64{3, 40, 77, 99})
	if err != nil {
		t.Fatal(err)
	}
	res := h.Wait()
	for i, want := range []bool{true, true, true, false} {
		if res.Results[i].Err != nil || res.Results[i].OK != want {
			t.Fatalf("get[%d]: %+v, want OK=%v", i, res.Results[i], want)
		}
	}
	h, err = ex.RangeScan(0, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if keys := h.Wait().Keys; len(keys) != 3 {
		t.Fatalf("range scan keys: %v", keys)
	}
	if stats := ex.Stats(); stats.Completed != 3 || stats.Partial != 0 {
		t.Fatalf("exec stats: %+v", stats)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.MultiGet([]int64{1}); err != repro.ErrExecClosed {
		t.Fatalf("post-close submit: %v", err)
	}

	if testing.Short() {
		t.Skip("pipeline experiment needs a real traffic window")
	}
	pres, err := repro.RunPipeline(repro.PipelineConfig{
		Shards: 4, Duration: 200 * time.Millisecond,
		ChaosDuration: 350 * time.Millisecond,
		KeyRange:      1024, LegTimeout: 20 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Pipelined.Requests == 0 || !pres.PartialChainsClosed {
		t.Fatalf("pipeline experiment: %+v", pres)
	}
	var sb strings.Builder
	if err := repro.WriteArtifact(&sb, "pipeline", nil, pres, pres.Gates()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"experiment": "pipeline"`) {
		t.Errorf("artifact missing experiment tag")
	}
}

// TestFacadeChaos exercises the chaos-audit surface: a tiny stall run on
// two shards spanning the robustness extremes, its artifact, and the
// fault enumeration.
func TestFacadeChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs a real traffic window")
	}
	if len(repro.FaultNames()) == 0 {
		t.Fatal("no faults registered")
	}
	res, err := repro.RunChaos(repro.ChaosConfig{
		Schemes:  []string{"ebr", "hp"},
		Duration: 200 * time.Millisecond,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0].Audited == res.Rows[1].Audited {
		t.Errorf("audit did not separate ebr (%s) from hp (%s)",
			res.Rows[0].Audited, res.Rows[1].Audited)
	}
	var sb strings.Builder
	if err := repro.WriteArtifact(&sb, "chaos", nil, res, res.Gates()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"experiment": "chaos"`) {
		t.Errorf("artifact missing experiment tag")
	}
}
