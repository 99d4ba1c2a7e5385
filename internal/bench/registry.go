package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/smr/all"
)

// experiments is the registry behind erabench: one entry per experiment,
// each owning its full and short (CI smoke) configuration, its gate
// names, and its table. A new experiment is an entry here, not harness
// code in a command.
var experiments = []Experiment{
	{
		Name:  "adaptive",
		Title: "EXP-ADAPT: static vs adaptive reclamation under a delayed-release storm",
		Gates: []string{"improved"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// Both fleets start on ebr under the storm; the adaptive one
			// carries the controller (ladder ebr→ibr→hp) and must migrate
			// its way out. The smoke window is a touch longer than the
			// default so escalation has room on a loaded runner.
			cfg := AdaptiveConfig{Seed: p.Seed}
			if p.Short {
				cfg.Duration = time.Second
			}
			cfg.fill()
			res, err := RunAdaptive(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, config, rows any) {
			WriteAdaptiveTable(w, config.(AdaptiveConfig), rows.(AdaptiveResult))
		},
	},
	{
		Name:  "batch",
		Title: "EXP-BATCH: fused vs per-op SMR brackets, zero-alloc spine, parked-worker backlog",
		Gates: []string{"backlog_bounded", "fused_beats_serial", "zero_alloc"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			cfg := BatchConfig{Seed: p.Seed}
			if p.Short {
				cfg.Duration = 150 * time.Millisecond
				cfg.Batches = []int{16}
				cfg.Schemes = []string{"ebr", "hp"}
				cfg.KeyRange = 1024
				cfg.AllocRounds = 500
				cfg.BacklogOps = 3200
			}
			cfg.fill()
			res, err := RunBatch(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, config, rows any) { WriteBatchTable(w, config.(BatchConfig), rows.(BatchResult)) },
	},
	{
		Name:  "chaos",
		Title: "EXP-CHAOS: live robustness audit under stall injection (ebr/ibr/hp)",
		Gates: []string{"verdicts_consistent"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// One shard per robustness class, a stall in each, verdicts
			// from the faulted telemetry; erachaos exposes the full
			// fault/schedule surface.
			cfg := ChaosConfig{Seed: p.Seed}
			cfg.fill()
			res, err := RunChaos(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, _, rows any) { WriteChaosTable(w, rows.(ChaosResult)) },
	},
	{
		Name:  "matrix",
		Title: "EXP-ERA: the ERA matrix (Theorem 6.1)",
		Run: func(p Params) (any, any, map[string]bool, error) {
			k := p.pick(p.K, 800, 300)
			m, err := core.BuildMatrix(k)
			return map[string]int{"k": k}, m, nil, err
		},
		Table: func(w io.Writer, _, rows any) { io.WriteString(w, rows.(core.Matrix).String()) },
	},
	{
		Name:  "michael",
		Title: "EXP-MICHAEL: Harris+EBR vs Michael+HP (delete-heavy)",
		Run: func(p Params) (any, any, map[string]bool, error) {
			cfg := p.throughput()
			cfg.Threads, cfg.Mix = 2, MixUpdateOnly
			rows, err := MichaelComparison(cfg)
			return cfg, rows, nil, err
		},
		Table: func(w io.Writer, _, rows any) { WriteThroughputTable(w, rows.([]ThroughputRow)) },
	},
	{
		Name:  "obs",
		Title: "EXP-OBS: flight recorder + causal fault→verdict→migration timelines",
		Gates: []string{"chains_complete", "detection_finite", "overhead_ok"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// A small adaptive fleet on ebr, one staggered self-healing
			// delayed-release fault per shard, the full plane on tape —
			// then the joined incident chains, the SLO trace, and the
			// recorder's own overhead A/B.
			cfg := ObsConfig{Seed: p.Seed}
			if p.Short {
				cfg.Duration = 700 * time.Millisecond
				cfg.OverheadRoundDuration = 100 * time.Millisecond
			}
			cfg.fill()
			res, err := RunObs(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, _, rows any) { WriteObsTable(w, rows.(ObsResult)) },
		Trace: func(w io.Writer, rows any) error {
			res := rows.(ObsResult)
			return obs.WriteChromeTrace(w, res.Events, res.Series)
		},
	},
	{
		Name:  "pipeline",
		Title: "EXP-PIPELINE: blocking vs pipelined scatter-gather + partial-failure chaos",
		Gates: []string{"partial_chains_closed", "pipelined_beats_blocking"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// The same fan-out request stream as sequential blocking store
			// calls and through the pipelined executor, then the chaos
			// campaign stalling one shard mid-traffic.
			cfg := PipelineConfig{Seed: p.Seed}
			if p.Short {
				cfg.Shards = 4
				cfg.Duration = 250 * time.Millisecond
				cfg.ChaosDuration = 400 * time.Millisecond
				cfg.KeyRange = 1024
				cfg.LegTimeout = 20 * time.Millisecond
			}
			cfg.fill()
			res, err := RunPipeline(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, config, rows any) {
			WritePipelineTable(w, config.(PipelineConfig), rows.(PipelineResult))
		},
	},
	{
		Name:  "resil",
		Title: "EXP-RESIL: typed retries, hedged legs, retry-budget amplification bound",
		Gates: []string{"amplification_bounded", "goodput_recovered", "hedge_bounds_tail"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// The naive executor vs the retry client under staggered stall
			// + delayed-release pulses (paced open-loop offered load), then
			// the hedge A/B against a one-slow-worker park pulse.
			cfg := ResilConfig{Seed: p.Seed}
			if p.Short {
				cfg.Duration = 500 * time.Millisecond
				cfg.HedgeDuration = 300 * time.Millisecond
				cfg.KeyRange = 2048
			}
			cfg.fill()
			res, err := RunResil(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, config, rows any) { WriteResilTable(w, config.(ResilConfig), rows.(ResilResult)) },
	},
	{
		Name:  "scale",
		Title: "EXP-SCALE: stalled-reader backlog vs structure size (Def 5.1 vs 5.2)",
		Run: func(p Params) (any, any, map[string]bool, error) {
			schemes, sizes := []string{"hp", "he", "ibr", "vbr", "nbr", "rc"}, []int{128, 512, 2048}
			rows, err := ScaleSweep(schemes, sizes)
			return map[string]any{"schemes": schemes, "sizes": sizes}, rows, nil, err
		},
		Table: func(w io.Writer, _, rows any) { WriteScaleTable(w, rows.([]ScaleRow)) },
	},
	{
		Name:  "service",
		Title: "EXP-SERVICE: sharded store, heterogeneous SMR (ebr+hp, 4 shards)",
		Run: func(p Params) (any, any, map[string]bool, error) {
			// EBR and HP alternate across shards of the HP-compatible
			// hashmap — the ERA trade-off made per shard. eraserve exposes
			// the full configuration surface.
			t := p.throughput()
			cfg := ServiceConfig{
				Shards: 4, Schemes: []string{"ebr", "hp"}, Structure: "hashmap",
				OpsPerClient: t.OpsPerThread, KeyRange: t.KeyRange,
				Workload: t.Workload, Schedule: t.Schedule, Seed: p.Seed,
			}
			cfg.fill()
			res, err := RunService(cfg)
			return cfg, res, nil, err
		},
		Table: func(w io.Writer, _, rows any) { WriteServiceTable(w, rows.(ServiceResult)) },
	},
	{
		Name:  "space",
		Title: "EXP-SPACE: stalled-reader space bounds",
		Run: func(p Params) (any, any, map[string]bool, error) {
			k := p.pick(p.K, 800, 300)
			rows, err := SpaceSweep(k)
			return map[string]int{"k": k}, rows, nil, err
		},
		Table: func(w io.Writer, _, rows any) { WriteSpaceTable(w, rows.([]SpaceRow)) },
	},
	{
		Name:  "stall",
		Title: "EXP-STALL: retired backlog over time with one stalled reader",
		Run: func(p Params) (any, any, map[string]bool, error) {
			schemes, steps, every := []string{"ebr", "qsbr", "hp", "ibr", "vbr", "nbr"}, 2000, 200
			cfg := map[string]any{"schemes": schemes, "steps": steps, "sample_every": every}
			series := make(map[string][]StallSample)
			for _, scheme := range schemes {
				s, err := StallSeries(scheme, steps, every)
				if err != nil {
					return cfg, nil, nil, err
				}
				series[scheme] = s
			}
			return cfg, series, nil, nil
		},
		Table: func(w io.Writer, _, rows any) { WriteStallSeries(w, rows.(map[string][]StallSample)) },
	},
	{
		Name:  "structures",
		Title: "EXP-EXT: stalled traversal across structures (§6 open question)",
		Run: func(p Params) (any, any, map[string]bool, error) {
			// The registry's traversal structures (the ones the stall
			// script can target) × every safe scheme.
			k := p.pick(p.K, 800, 300)
			rows := make(map[string][]*adversary.Outcome)
			for _, structure := range registry.TraversalSetNames() {
				for _, scheme := range all.SafeNames() {
					o, err := adversary.StallTraversal(scheme, structure, k, mem.Unmap)
					if err != nil {
						return nil, nil, nil, err
					}
					rows[structure] = append(rows[structure], o)
				}
			}
			return map[string]int{"k": k}, rows, nil, nil
		},
		Table: func(w io.Writer, _, rows any) {
			byStructure := rows.(map[string][]*adversary.Outcome)
			for _, s := range registry.TraversalSetNames() {
				fmt.Fprintf(w, "-- %s --\n", s)
				for _, o := range byStructure[s] {
					fmt.Fprintln(w, o)
				}
			}
		},
	},
	{
		Name:  "throughput",
		Title: "EXP-THRU: scheme × mix × threads sweep",
		Run: func(p Params) (any, any, map[string]bool, error) {
			cfg := p.throughput()
			structure := p.Structure
			if structure == "" {
				structure = "harris"
			}
			mixes, threads := []Mix{MixReadHeavy, MixBalanced, MixUpdateOnly}, []int{1, 2, 4}
			rows, err := ThroughputSweep(structure, all.SafeNames(), mixes, threads, cfg)
			return map[string]any{
				"structure": structure, "schemes": all.SafeNames(), "mixes": mixes, "threads": threads,
				"ops_per_thread": cfg.OpsPerThread, "key_range": cfg.KeyRange, "seed": cfg.Seed,
				"workload": cfg.Workload, "schedule": cfg.Schedule,
			}, rows, nil, err
		},
		Table: func(w io.Writer, _, rows any) { WriteThroughputTable(w, rows.([]ThroughputRow)) },
	},
	{
		Name:  "traverse",
		Title: "EXP-TRAVERSE: bounded-restart finds + O(live-keys) migration snapshot",
		Gates: []string{"guard_clean", "snapshot_probes_bounded"},
		Run: func(p Params) (any, any, map[string]bool, error) {
			// Head-restart vs bounded finds under the long-chain churn
			// storm, then Contains-scan vs iterator migration snapshots at
			// a large universe with few live keys.
			cfg := TraverseConfig{Seed: p.Seed}
			if p.Short {
				cfg.Duration = 150 * time.Millisecond
				cfg.ChurnKeyRange = 1024
				cfg.SnapKeyRange = 100_000
				cfg.SnapLiveKeys = 2000
			}
			cfg.fill()
			res, err := RunTraverse(cfg)
			return cfg, res, res.Gates(), err
		},
		Table: func(w io.Writer, config, rows any) {
			WriteTraverseTable(w, config.(TraverseConfig), rows.(TraverseResult))
		},
	},
}

// throughput resolves the throughput family's shared configuration.
func (p Params) throughput() ThroughputConfig {
	return ThroughputConfig{
		OpsPerThread: p.pick(p.Ops, 20000, 4000),
		KeyRange:     p.pick(p.KeyRange, 1024, 512),
		Seed:         p.Seed,
		Workload:     p.Workload,
		Schedule:     p.Mix,
	}
}
