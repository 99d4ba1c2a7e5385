// Package bench implements the experiment harness behind every figure and
// table in EXPERIMENTS.md:
//
//   - internal/workload supplies the scenarios: key distributions and
//     op-mix schedules selected by name, so a new workload is a registry
//     entry rather than harness code;
//   - the engine (engine.go) assembles arena + scheme + structure, runs an
//     untimed warmup and a timed measurement phase with per-thread op
//     loops driven by a workload.Source, and samples operation latencies;
//   - one client driver (drive.go) runs every store- and executor-level
//     experiment's traffic — closed or paced open loop, bounded by an op
//     budget, a deadline or a stop channel — plus the paired,
//     alternating, best-of-rounds A/B every wall-clock gate uses;
//   - the experiment registry (registry.go) names each experiment with
//     its full and short configuration, gates and table, and one runner
//     (harness.go) writes every result as the same BENCH_<name>.json
//     envelope {experiment, host, config, rows, gates} and fails when a
//     gate is false;
//   - reporting (report.go) renders each experiment's terminal table.
//
// The paper itself is a theory paper with two proof illustrations and no
// measurement section; the harness therefore regenerates (a) the paper's
// two figures as deterministic executions (internal/core/adversary), and
// (b) the standard evaluation shape of the SMR literature the paper builds
// on — throughput under operation mixes, space bounds under stalls, and
// the Harris-vs-Michael comparison the Section 6 discussion cites.
package bench

import "repro/internal/workload"

// Mix is an operation mix in percent; the three fields must sum to 100.
// It is an alias of workload.Mix — the schedules in internal/workload
// modulate it over a run.
type Mix = workload.Mix

// Standard mixes used across the experiments (read-heavy, mixed,
// update-only), matching the sweeps in the IBR/NBR/VBR evaluations.
var (
	MixReadHeavy  = workload.MixReadHeavy
	MixBalanced   = workload.MixBalanced
	MixUpdateOnly = workload.MixUpdateOnly
)
