// Code generated by go generate; DO NOT EDIT.

// Command erabench runs the experiment suite. Each experiment prints its
// table and gates, writes a BENCH_<name>.json artifact envelope
// (experiment, host, config, rows, gates) into -out, and erabench exits
// nonzero when any gate is false.
//
// Usage:
//
//	erabench [-exp name] [-short] [-out dir] [flags]
//
// Experiments (-exp; "all", the default, runs every one in name order):
//
//	adaptive    EXP-ADAPT: static vs adaptive reclamation under a delayed-release storm
//	            gates: improved
//	batch       EXP-BATCH: fused vs per-op SMR brackets, zero-alloc spine, parked-worker backlog
//	            gates: backlog_bounded, fused_beats_serial, zero_alloc
//	chaos       EXP-CHAOS: live robustness audit under stall injection (ebr/ibr/hp)
//	            gates: verdicts_consistent
//	matrix      EXP-ERA: the ERA matrix (Theorem 6.1)
//	michael     EXP-MICHAEL: Harris+EBR vs Michael+HP (delete-heavy)
//	obs         EXP-OBS: flight recorder + causal fault→verdict→migration timelines
//	            gates: chains_complete, detection_finite, overhead_ok
//	pipeline    EXP-PIPELINE: blocking vs pipelined scatter-gather + partial-failure chaos
//	            gates: partial_chains_closed, pipelined_beats_blocking
//	resil       EXP-RESIL: typed retries, hedged legs, retry-budget amplification bound
//	            gates: amplification_bounded, goodput_recovered, hedge_bounds_tail
//	scale       EXP-SCALE: stalled-reader backlog vs structure size (Def 5.1 vs 5.2)
//	service     EXP-SERVICE: sharded store, heterogeneous SMR (ebr+hp, 4 shards)
//	space       EXP-SPACE: stalled-reader space bounds
//	stall       EXP-STALL: retired backlog over time with one stalled reader
//	structures  EXP-EXT: stalled traversal across structures (§6 open question)
//	throughput  EXP-THRU: scheme × mix × threads sweep
//	traverse    EXP-TRAVERSE: bounded-restart finds + O(live-keys) migration snapshot
//	            gates: guard_clean, snapshot_probes_bounded
//
// -short runs each experiment at its CI smoke scale. The throughput
// family is workload-driven: -workload names the key distribution and
// -mix the op-mix schedule, both resolved through the internal/workload
// registries. -seed fixes every stream, so two runs with equal flags
// replay identical operation sequences:
//
//	erabench -exp throughput -workload zipfian -mix phased
//	erabench -exp batch -short -out artifacts
package main
