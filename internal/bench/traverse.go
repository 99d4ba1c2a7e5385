// EXP-TRAVERSE: the traversal hot-path experiment. Two sections, each an
// A/B pair over the same workload:
//
// Section 1 (storm) reproduces the restart storm of ROADMAP item 5: a
// single long-chain shard (Michael's list over the whole key range)
// under churning clients, once with the legacy head-restart finds
// (ShardSpec.HeadRestart) and once with the bounded cached-pred finds.
// Measured: throughput, request p50/p99, the traversal counters
// (restart rate, head-restart share, worst single-op steps), and the
// peak retired backlog — the quantity a storm balloons by pinning an
// epoch inside one operation bracket.
//
// Section 2 (snapshot) measures MigrateShard's swap window at a large
// key universe with few live keys, once with the legacy O(universe)
// Contains scan (Config.SnapshotScan) and once with the O(live-keys)
// iterator snapshot. Measured: membership probes, carried keys, and the
// wall-clock swap window; the headline is the window improvement ratio
// and the probes-track-live-keys bound CI asserts.

package bench

import (
	"fmt"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

// TraverseConfig sizes EXP-TRAVERSE.
type TraverseConfig struct {
	// Workers is the storm shard's worker count; 0 selects 3.
	Workers int
	// Clients is the storm client count; 0 selects 4.
	Clients int
	// Duration is the storm window per arm; 0 selects 400ms.
	Duration time.Duration
	// Batch is the client batch size; 0 selects 16.
	Batch int
	// ChurnKeyRange is the storm key universe — the live chain is about
	// half of it; 0 selects 4096.
	ChurnKeyRange int
	// SnapKeyRange is the snapshot section's key universe; 0 selects
	// 1_000_000.
	SnapKeyRange int
	// SnapLiveKeys is how many live keys the snapshot section prefills,
	// spread evenly over the universe; 0 selects 10_000.
	SnapLiveKeys int
	// Seed makes the client streams deterministic.
	Seed uint64
}

func (cfg *TraverseConfig) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 400 * time.Millisecond
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.ChurnKeyRange <= 0 {
		cfg.ChurnKeyRange = 4096
	}
	if cfg.SnapKeyRange <= 0 {
		cfg.SnapKeyRange = 1_000_000
	}
	if cfg.SnapLiveKeys <= 0 {
		cfg.SnapLiveKeys = 10_000
	}
}

// TraverseStormArm is one storm arm's measurement.
type TraverseStormArm struct {
	// Mode is "head-restart" (baseline) or "bounded".
	Mode       string        `json:"mode"`
	Ops        uint64        `json:"ops"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	// Traversal counters over the whole arm (prefill included).
	TravSteps        uint64 `json:"trav_steps"`
	TravRestarts     uint64 `json:"trav_restarts"`
	TravHeadRestarts uint64 `json:"trav_head_restarts"`
	GuardTrips       uint64 `json:"guard_trips"`
	MaxOpSteps       uint64 `json:"max_op_steps"`
	// RestartsPerKOp is the restart rate: traversal restarts per thousand
	// service operations.
	RestartsPerKOp float64 `json:"restarts_per_kop"`
	PeakRetired    uint64  `json:"peak_retired"`
}

// TraverseSnapArm is one snapshot arm's measurement.
type TraverseSnapArm struct {
	// Mode is "scan" (baseline: O(universe) Contains probes) or
	// "iterator" (O(live keys)).
	Mode           string        `json:"mode"`
	SnapshotProbes uint64        `json:"snapshot_probes"`
	SnapshotKeys   uint64        `json:"snapshot_keys"`
	SwapWindow     time.Duration `json:"swap_window_ns"`
}

// TraverseResult is the full EXP-TRAVERSE measurement.
type TraverseResult struct {
	Storm []TraverseStormArm `json:"storm"`
	Snap  []TraverseSnapArm  `json:"snapshot"`

	// SwapImprovement is the snapshot headline: scan-arm swap window over
	// iterator-arm swap window (the acceptance bar is >= 10x at the full
	// universe-to-live-keys ratio).
	SwapImprovement float64 `json:"swap_improvement"`
	// ProbesBounded is the CI assertion: the iterator arm's snapshot
	// probes stayed within 2x its live keys.
	ProbesBounded bool `json:"snapshot_probes_bounded"`
	// GuardClean reports that no operation in either storm arm hit the
	// traversal step budget.
	GuardClean bool `json:"guard_clean"`
}

// Gates returns EXP-TRAVERSE's acceptance gates.
func (r TraverseResult) Gates() map[string]bool {
	return map[string]bool{
		"snapshot_probes_bounded": r.ProbesBounded,
		"guard_clean":             r.GuardClean,
	}
}

// runTraverseStorm runs one storm arm: a single Michael-list shard over
// the whole churn key range, duration-boxed clients, traversal counters
// read after close.
func runTraverseStorm(cfg TraverseConfig, headRestart bool) (TraverseStormArm, error) {
	mode := "bounded"
	if headRestart {
		mode = "head-restart"
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:      "ebr",
			Structure:   "michael",
			Workers:     cfg.Workers,
			HeadRestart: headRestart,
		}},
		KeyRange: cfg.ChurnKeyRange,
	})
	if err != nil {
		return TraverseStormArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.ChurnKeyRange,
		Mix:      MixBalanced,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return TraverseStormArm{}, err
	}
	if err := prefillHalf(st, cfg.ChurnKeyRange, cfg.Batch, cfg.Seed); err != nil {
		return TraverseStormArm{}, err
	}
	start := time.Now()
	t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch, deadline: start.Add(cfg.Duration)}.run()
	if err != nil {
		return TraverseStormArm{}, err
	}
	ops := t.ops
	elapsed := time.Since(start)
	if err := st.Close(); err != nil {
		return TraverseStormArm{}, err
	}
	s := st.Stats()
	arm := TraverseStormArm{
		Mode:             mode,
		Ops:              ops,
		MopsPerSec:       float64(ops) / elapsed.Seconds() / 1e6,
		P50:              t.lat.Percentile(0.50),
		P99:              t.lat.Percentile(0.99),
		TravSteps:        s.TravSteps,
		TravRestarts:     s.TravRestarts,
		TravHeadRestarts: s.TravHeadRestarts,
		GuardTrips:       s.GuardTrips,
		MaxOpSteps:       s.MaxOpSteps,
		PeakRetired:      s.MaxRetired,
	}
	if ops > 0 {
		arm.RestartsPerKOp = float64(s.TravRestarts) / float64(ops) * 1000
	}
	return arm, nil
}

// runTraverseSnap runs one snapshot arm: prefill SnapLiveKeys evenly
// over SnapKeyRange on a hashmap shard sized for the live keys (not the
// universe — the point), migrate it onto the same scheme, and read the
// migration cost observables.
func runTraverseSnap(cfg TraverseConfig, scan bool) (TraverseSnapArm, error) {
	mode := "iterator"
	if scan {
		mode = "scan"
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    "ebr",
			Structure: "hashmap",
			Slots:     4*cfg.SnapLiveKeys + 8192,
		}},
		KeyRange:     cfg.SnapKeyRange,
		SnapshotScan: scan,
	})
	if err != nil {
		return TraverseSnapArm{}, err
	}
	defer st.Close()
	stride := cfg.SnapKeyRange / cfg.SnapLiveKeys
	if stride < 1 {
		stride = 1
	}
	if err := insertKeys(st, cfg.SnapLiveKeys, cfg.Batch, func(i int) int64 { return int64(i * stride) }); err != nil {
		return TraverseSnapArm{}, err
	}
	if err := st.MigrateShard(0, "ebr"); err != nil {
		return TraverseSnapArm{}, fmt.Errorf("bench: traverse snapshot (%s): %w", mode, err)
	}
	ss := st.Stats().Shards[0]
	return TraverseSnapArm{
		Mode:           mode,
		SnapshotProbes: ss.SnapshotProbes,
		SnapshotKeys:   ss.SnapshotKeys,
		SwapWindow:     time.Duration(ss.SwapWindowNanos),
	}, nil
}

// RunTraverse runs both sections of EXP-TRAVERSE, baseline arm first.
func RunTraverse(cfg TraverseConfig) (TraverseResult, error) {
	cfg.fill()
	var res TraverseResult
	for _, headRestart := range []bool{true, false} {
		arm, err := runTraverseStorm(cfg, headRestart)
		if err != nil {
			return TraverseResult{}, err
		}
		res.Storm = append(res.Storm, arm)
	}
	for _, scan := range []bool{true, false} {
		arm, err := runTraverseSnap(cfg, scan)
		if err != nil {
			return TraverseResult{}, err
		}
		res.Snap = append(res.Snap, arm)
	}
	scanArm, iterArm := res.Snap[0], res.Snap[1]
	if iterArm.SwapWindow > 0 {
		res.SwapImprovement = float64(scanArm.SwapWindow) / float64(iterArm.SwapWindow)
	}
	res.ProbesBounded = iterArm.SnapshotProbes <= 2*iterArm.SnapshotKeys
	res.GuardClean = true
	for _, arm := range res.Storm {
		if arm.GuardTrips != 0 {
			res.GuardClean = false
		}
	}
	return res, nil
}
