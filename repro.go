// Package repro is a reproduction of Sheffi & Petrank, "The ERA Theorem
// for Safe Memory Reclamation" (PPoPP 2023, arXiv:2211.04351), as a
// runnable Go library.
//
// The paper proves that a safe memory reclamation (SMR) scheme can provide
// at most two of three properties: Ease of integration (Definition 5.3),
// Robustness (Definitions 5.1–5.2), and wide Applicability (Definitions
// 5.4–5.6). This repository makes every piece of that statement
// executable:
//
//   - a simulated manually-managed heap (tagged references, node
//     life-cycles, unsafe-access detection) standing in for the paper's
//     memory model on top of Go's garbage-collected runtime;
//   - eleven reclamation schemes (EBR, QSBR, HP, IBR, HE, VBR, NBR, PEBR,
//     RC, a leak baseline and an unsafe immediate-free baseline) behind
//     one barrier interface;
//   - seven lock-free data structures written once against that
//     interface, with Harris's linked-list — the theorem's central
//     object — among them;
//   - the paper's two proof executions (Figure 1 and Figure 2) as
//     deterministic, replayable scripts;
//   - monitors and checkers for each formal definition, assembled into
//     the ERA matrix whose empty all-yes row is Theorem 6.1.
//
// This facade re-exports the surface the tests, README and examples use;
// the implementation lives in the internal packages (see DESIGN.md for
// the inventory).
package repro

import (
	"io"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/resil"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/workload"
)

// Heap is the simulated manually-managed heap (see internal/mem).
type Heap = mem.Arena

// HeapConfig configures a Heap.
type HeapConfig = mem.Config

// Reuse is the reclaim mode that recycles freed slots in program space.
const Reuse = mem.Reuse

// NewHeap builds a heap. Pass MetaWords: repro.SchemeMetaWords so any
// scheme can attach its per-node metadata.
func NewHeap(cfg HeapConfig) *Heap { return mem.NewArena(cfg) }

// SchemeMetaWords is the per-node scheme-metadata word count every scheme
// in the repository fits in.
const SchemeMetaWords = smr.MetaWords

// Scheme is the uniform SMR interface of Definition 5.3: begin/end
// brackets, alloc/retire replacements, and guarded primitive accesses.
type Scheme = smr.Scheme

// NewScheme builds the named scheme ("ebr", "qsbr", "hp", "ibr", "he",
// "vbr", "nbr", "rc", "none", "unsafefree") over heap h for n threads.
func NewScheme(name string, h *Heap, n int) (Scheme, error) {
	return all.New(name, h, n, 0)
}

// SchemeNames lists every registered scheme.
func SchemeNames() []string { return all.Names() }

// StructureNames lists every registered data structure.
func StructureNames() []string { return registry.Names() }

// Set is the integer-set abstract data type.
type Set = ds.Set

// NewSet builds the named set structure ("harris", "michael", "skiplist",
// "hashmap-harris", "hashmap-michael") over scheme s. The heap must have
// been built with at least MaxPayloadWords payload words for the skip
// list; plain lists need two.
func NewSet(structure string, s Scheme) (Set, error) {
	info, err := registry.Get(structure)
	if err != nil {
		return nil, err
	}
	if info.NewSet == nil {
		return nil, errNotASet(structure)
	}
	return info.NewSet(s, ds.Options{})
}

type errNotASet string

func (e errNotASet) Error() string { return "repro: " + string(e) + " is not a set structure" }

// MaxPayloadWords is the payload-word requirement of the largest
// structure (the skip list).
const MaxPayloadWords = registry.MaxPayloadWords

// AdversaryOutcome is the structured result of a scripted execution.
type AdversaryOutcome = adversary.Outcome

// RunFigure1 replays the Theorem 6.1 lower-bound execution for a scheme
// with churn length K.
func RunFigure1(scheme string, k int) (*AdversaryOutcome, error) {
	return adversary.Figure1(scheme, k, mem.Unmap)
}

// RunFigure2 replays the Appendix E incompatibility execution.
func RunFigure2(scheme string) (*AdversaryOutcome, error) {
	return adversary.Figure2(scheme, mem.Unmap)
}

// ERAMatrix is the assembled two-of-three matrix.
type ERAMatrix = core.Matrix

// BuildERAMatrix measures every scheme and assembles the matrix;
// TheoremHolds() reports the paper's main claim.
func BuildERAMatrix(figureK int) (ERAMatrix, error) { return core.BuildMatrix(figureK) }

// WriteExperiments renders the ERA matrix and the stalled-reader space
// bounds to w.
func WriteExperiments(w io.Writer, figureK int) error {
	if err := bench.MatrixReport(w, figureK); err != nil {
		return err
	}
	rows, err := bench.SpaceSweep(figureK)
	if err != nil {
		return err
	}
	bench.WriteSpaceTable(w, rows)
	return nil
}

// WriteArtifact emits a measurement as the BENCH_*.json artifact
// envelope every command writes: experiment, host, config, rows, gates.
func WriteArtifact(w io.Writer, experiment string, config, rows any, gates map[string]bool) error {
	return bench.WriteArtifact(w, experiment, config, rows, gates)
}

// Store is the sharded multi-tenant key-value service: keys hash across
// shards, each shard owning its own heap, data structure, and SMR domain,
// so reclamation-scheme choice is a per-shard deployment decision (see
// internal/store).
type Store = store.Store

// StoreConfig assembles a Store.
type StoreConfig = store.Config

// StoreShardSpec configures one shard (scheme, structure, workers).
type StoreShardSpec = store.ShardSpec

// ErrStoreClosed is the submission error of a closed store.
var ErrStoreClosed = store.ErrClosed

// NewStore builds the sharded service and starts its shard workers.
func NewStore(cfg StoreConfig) (*Store, error) { return store.New(cfg) }

// UniformShards builds the homogeneous n-shard spec list.
func UniformShards(n int, spec StoreShardSpec) []StoreShardSpec { return store.Uniform(n, spec) }

// ServiceConfig sizes the closed-loop sharded-service experiment.
type ServiceConfig = bench.ServiceConfig

// ServiceResult is the service measurement: aggregate row plus per-shard
// breakdown.
type ServiceResult = bench.ServiceResult

// RunService drives the sharded store with a closed-loop client fleet
// (the eraserve command is a thin wrapper over this).
func RunService(cfg ServiceConfig) (ServiceResult, error) { return bench.RunService(cfg) }

// Executor is the pipelined scatter-gather execution layer over a Store:
// cross-shard multi-key and range requests compile into per-shard
// scatter legs, submit asynchronously, and merge deterministically, with
// typed partial results for failed legs (see internal/exec).
type Executor = exec.Executor

// ExecConfig assembles an Executor: queue depth, pump pool, leg budget,
// admission signal, and flight-recorder wiring.
type ExecConfig = exec.Config

// ErrExecClosed is the submission error of a closed executor.
var ErrExecClosed = exec.ErrClosed

// NewExecutor builds the scatter-gather layer over a running store.
func NewExecutor(st *Store, cfg ExecConfig) (*Executor, error) { return exec.New(st, cfg) }

// PipelineConfig sizes the pipelined-execution experiment: the blocking
// vs pipelined A/B plus the partial-failure chaos campaign.
type PipelineConfig = bench.PipelineConfig

// PipelineResult is the experiment outcome: both arm rows, the chaos
// campaign row, and the headline verdicts.
type PipelineResult = bench.PipelineResult

// RunPipeline runs the pipelined-execution experiment.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) { return bench.RunPipeline(cfg) }

// ResilClient is the resilience policy layer over one executor:
// typed-error-aware retries under a store-wide budget, hedged legs,
// verdict-fed per-shard circuit breakers, and a settled-leg latency feed
// for SLO verdicts (see internal/resil).
type ResilClient = resil.Client

// ResilConfig assembles a ResilClient: retry shape and budget, hedge
// quantile, breaker thresholds, verdict feed, and recorder wiring.
type ResilConfig = resil.Config

// NewResilClient wraps a running store's scatter-gather path in the
// resilience policies.
func NewResilClient(st *Store, execCfg ExecConfig, cfg ResilConfig) (*ResilClient, error) {
	return resil.New(st, execCfg, cfg)
}

// Req is one cross-shard request, as ResilClient.Do takes it.
type Req = workload.Req

// ReqMultiGet is the multi-key lookup request kind.
const ReqMultiGet = workload.ReqMultiGet

// ChaosConfig sizes the chaos-injection robustness audit: a gated store
// with one shard per scheme, fault injection on a schedule, and telemetry
// fitted into per-scheme verdicts (see internal/chaos and
// internal/telemetry).
type ChaosConfig = bench.ChaosConfig

// ChaosResult is the audit outcome: verdict rows, the fault episode log,
// and the client-side aggregate.
type ChaosResult = bench.ChaosResult

// RunChaos runs the chaos experiment (the erachaos command is a thin
// wrapper over this).
func RunChaos(cfg ChaosConfig) (ChaosResult, error) { return bench.RunChaos(cfg) }

// FaultNames lists the registered chaos faults.
func FaultNames() []string { return chaos.Names() }
