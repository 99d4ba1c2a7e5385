package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// shortPipelineConfig boxes EXP-PIPELINE to CI-sized windows: long
// enough for the stall to saturate the leg budget and shed, short
// enough for -race.
func shortPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Shards:        4,
		Duration:      250 * time.Millisecond,
		ChaosDuration: 400 * time.Millisecond,
		KeyRange:      1024,
		LegTimeout:    20 * time.Millisecond,
		Seed:          7,
	}
}

func TestRunPipelineShort(t *testing.T) {
	res, err := RunPipeline(shortPipelineConfig())
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if res.Blocking.Requests == 0 || res.Pipelined.Requests == 0 {
		t.Fatalf("empty arm: blocking=%d pipelined=%d", res.Blocking.Requests, res.Pipelined.Requests)
	}
	if !res.PipelinedBeatsBlocking {
		t.Errorf("pipelined arm (%.0f req/s) did not beat blocking (%.0f req/s)",
			res.Pipelined.ReqPerSec, res.Blocking.ReqPerSec)
	}
	c := res.Chaos
	if c.Requests == 0 {
		t.Fatal("chaos campaign served no requests")
	}
	if c.Partial == 0 {
		t.Error("chaos-stalled shard produced no partial results")
	}
	if !c.FaultFired || !c.FaultHeals || !c.CleanAfterHeal {
		t.Errorf("partial-failure chain open: fired=%v healed=%v clean=%v",
			c.FaultFired, c.FaultHeals, c.CleanAfterHeal)
	}
	if !res.PartialChainsClosed {
		t.Error("PartialChainsClosed not set despite closed chain")
	}
	if c.ScatterEvents == 0 || c.MergeEvents == 0 {
		t.Errorf("recorder missing exec events: scatter=%d merge=%d", c.ScatterEvents, c.MergeEvents)
	}

	var buf bytes.Buffer
	WritePipelineTable(&buf, shortPipelineConfig(), res)
	for _, want := range []string{"blocking", "pipelined", "chaos:", "partial chains closed"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q:\n%s", want, buf.String())
		}
	}
}
