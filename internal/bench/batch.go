// EXP-BATCH: the batch-fusion experiment. Three sections over the same
// single-shard Michael-list deployment:
//
// Section 1 (throughput) A/Bs the fused hot path against the per-op
// baseline: for each scheme × client batch size, the same churn workload
// runs once with batch fusion (one amortized SMR bracket per request,
// key-sorted execution, cross-op predecessor reuse) and once with
// ShardSpec.NoFuse (every op under its own BeginOp/EndOp bracket).
// Measured: throughput, request p50/p99, and the fused-window counters;
// the headline is the best fused/per-op ratio (the acceptance bar is
// >= 1.15x at batch >= 16).
//
// Section 2 (allocs) measures steady-state allocations on the
// zero-alloc request spine: a warmed DoInto loop with a reused result
// slice on a contains-only stream, mallocs read before and after with GC
// parked so pool evictions cannot masquerade as serving-path churn. The
// headline is allocs per DoInto call — the acceptance bar is zero.
//
// Section 3 (backlog) is the robustness guard: for each scheme, a
// two-worker shard has one worker parked at a traversal breakpoint while
// the other serves a fixed operation budget of fused (resp. per-op)
// traffic. Fixed work, not a fixed window: both arms retire the same
// node volume, so any widening of the peak is the bracket cadence's
// doing. The fused window's K-op cadence must keep the peak retired
// backlog within 2x of the per-op arm's — amortization must not buy
// throughput by silently widening the reclamation pin.

package bench

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// BatchConfig sizes EXP-BATCH.
type BatchConfig struct {
	// Workers is the shard's worker count; 0 selects 2.
	Workers int
	// Clients is the throughput-section client count; 0 selects 4.
	Clients int
	// Duration is the traffic window per throughput arm; 0 selects 300ms.
	Duration time.Duration
	// Batches is the client batch sizes to sweep; nil selects {16, 64}.
	Batches []int
	// KeyRange is the key universe (the live chain is about half of it);
	// 0 selects 4096.
	KeyRange int
	// Schemes is the scheme list for the throughput and backlog sections;
	// nil selects {ebr, hp, vbr} — one representative per reclamation
	// family (epoch, pointer, version).
	Schemes []string
	// AllocRounds is the measured DoInto call count in the allocation
	// section; 0 selects 2000.
	AllocRounds int
	// BacklogOps is each parked-worker arm's operation budget, split
	// over two clients; 0 selects 12800.
	BacklogOps int
	// Seed makes the client streams deterministic.
	Seed uint64
}

func (cfg *BatchConfig) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{16, 64}
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 4096
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr", "hp", "vbr"}
	}
	if cfg.AllocRounds <= 0 {
		cfg.AllocRounds = 2000
	}
	if cfg.BacklogOps <= 0 {
		cfg.BacklogOps = 12800
	}
}

// BatchArm is one throughput arm's measurement.
type BatchArm struct {
	// Mode is "fused" or "per-op" (the ShardSpec.NoFuse baseline).
	Mode       string        `json:"mode"`
	Ops        uint64        `json:"ops"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	// Fused-window counters (zero on the per-op arm).
	FusedBatches uint64 `json:"fused_batches"`
	FusedOps     uint64 `json:"fused_ops"`
	Rebrackets   uint64 `json:"rebrackets"`
	BatchSorts   uint64 `json:"batch_sorts"`
}

// BatchPair is one scheme × batch-size A/B: the fused arm, the per-op
// arm, and their throughput ratio.
type BatchPair struct {
	Scheme string   `json:"scheme"`
	Batch  int      `json:"batch"`
	Fused  BatchArm `json:"fused"`
	Serial BatchArm `json:"serial"`
	// Ratio is fused over per-op throughput.
	Ratio float64 `json:"ratio"`
}

// BatchAllocs is the allocation section's measurement.
type BatchAllocs struct {
	// Rounds is the measured DoInto call count, Batch the ops per call.
	Rounds int `json:"rounds"`
	Batch  int `json:"batch"`
	// AllocsPerOp is mallocs per DoInto call over the measured window
	// (process-wide, so shard-worker allocations count too).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// ZeroAlloc is the headline, under testing.B's integer-division
	// convention (MemAllocsPerOp == 0): the serving path itself must not
	// allocate, while one-time runtime residue — a sync.Pool pinning a
	// per-P local the first time a migrated worker touches it — rounds
	// away just as it does in `go test -benchmem`.
	ZeroAlloc bool `json:"zero_alloc"`
}

// BatchBacklogArm is one parked-worker arm's measurement.
type BatchBacklogArm struct {
	Mode        string `json:"mode"`
	Ops         uint64 `json:"ops"`
	PeakRetired uint64 `json:"peak_retired"`
}

// BatchBacklogPair is one scheme's parked-worker A/B and its verdict.
type BatchBacklogPair struct {
	Scheme string          `json:"scheme"`
	Fused  BatchBacklogArm `json:"fused"`
	Serial BatchBacklogArm `json:"serial"`
	// Bounded reports the robustness guard: the fused arm's peak retired
	// backlog stayed within 2x the per-op arm's (plus a small absolute
	// floor so near-zero baselines don't flake the ratio).
	Bounded bool `json:"bounded"`
}

// backlogFloor absorbs scheduling noise when the per-op baseline's peak
// backlog is tiny (a few retire-list entries): the 2x bound is a growth
// argument, not a claim about sub-threshold jitter.
const backlogFloor = 64

// BatchResult is the full EXP-BATCH measurement.
type BatchResult struct {
	Pairs   []BatchPair        `json:"pairs"`
	Allocs  BatchAllocs        `json:"allocs"`
	Backlog []BatchBacklogPair `json:"backlog"`

	// BestRatio is the throughput headline: the best fused/per-op ratio
	// across the sweep (the acceptance bar is >= 1.15 at batch >= 16).
	BestRatio float64 `json:"best_ratio"`
	// FusedBeatsSerial reports BestRatio >= 1.15.
	FusedBeatsSerial bool `json:"fused_beats_serial"`
	// ZeroAlloc mirrors the allocation section's headline.
	ZeroAlloc bool `json:"zero_alloc"`
	// BacklogBounded reports every scheme's parked-worker pair held the
	// 2x bound.
	BacklogBounded bool `json:"backlog_bounded"`
}

// Gates returns EXP-BATCH's acceptance gates: the fused path beats the
// per-op baseline 1.15x, the steady-state spine does not allocate, and
// amortization does not widen the parked-worker backlog past 2x.
func (r BatchResult) Gates() map[string]bool {
	return map[string]bool{
		"fused_beats_serial": r.FusedBeatsSerial,
		"zero_alloc":         r.ZeroAlloc,
		"backlog_bounded":    r.BacklogBounded,
	}
}

// runBatchArm runs one throughput arm: a single Michael-list shard over
// the whole key range, duration-boxed clients, fused-window counters read
// after close.
func runBatchArm(cfg BatchConfig, scheme string, batch int, nofuse bool) (BatchArm, error) {
	mode := "fused"
	if nofuse {
		mode = "per-op"
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    scheme,
			Structure: "michael",
			Workers:   cfg.Workers,
			NoFuse:    nofuse,
		}},
		KeyRange: cfg.KeyRange,
	})
	if err != nil {
		return BatchArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.KeyRange,
		Mix:      MixBalanced,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return BatchArm{}, err
	}
	if err := prefillHalf(st, cfg.KeyRange, batch, cfg.Seed); err != nil {
		return BatchArm{}, err
	}
	start := time.Now()
	t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: batch, deadline: start.Add(cfg.Duration)}.run()
	if err != nil {
		return BatchArm{}, err
	}
	elapsed := time.Since(start)
	if err := st.Close(); err != nil {
		return BatchArm{}, err
	}
	s := st.Stats()
	return BatchArm{
		Mode:         mode,
		Ops:          t.ops,
		MopsPerSec:   float64(t.ops) / elapsed.Seconds() / 1e6,
		P50:          t.lat.Percentile(0.50),
		P99:          t.lat.Percentile(0.99),
		FusedBatches: s.FusedBatches,
		FusedOps:     s.FusedOps,
		Rebrackets:   s.Rebrackets,
		BatchSorts:   s.BatchSorts,
	}, nil
}

// runBatchAllocs measures the zero-alloc claim: a warmed DoInto loop on
// a contains-only batch with a reused result slice, process-wide mallocs
// differenced around the window. Contains-only keeps the structure and
// retire lists quiescent, so every malloc the window sees belongs to the
// request spine — the thing the claim is about. GC is parked for the
// window so a collection cannot evict the request/spine pools mid-count.
func runBatchAllocs(cfg BatchConfig) (BatchAllocs, error) {
	const batch = 64
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: cfg.Workers}},
		KeyRange: cfg.KeyRange,
	})
	if err != nil {
		return BatchAllocs{}, err
	}
	defer st.Close()
	if err := prefillHalf(st, cfg.KeyRange, batch, cfg.Seed); err != nil {
		return BatchAllocs{}, err
	}
	rng := workload.RNG(cfg.Seed ^ 0xbeef)
	ops := make([]store.Op, batch)
	for i := range ops {
		ops[i] = store.Op{Kind: workload.OpContains, Key: int64(rng.Next() % uint64(cfg.KeyRange))}
	}
	res := make([]store.Result, batch)
	do := func(n int) error {
		for i := 0; i < n; i++ {
			if err := st.DoInto(ops, res); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm the pools and the worker scratch past their growth phase.
	if err := do(256); err != nil {
		return BatchAllocs{}, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := do(cfg.AllocRounds); err != nil {
		return BatchAllocs{}, err
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return BatchAllocs{
		Rounds:      cfg.AllocRounds,
		Batch:       batch,
		AllocsPerOp: float64(mallocs) / float64(cfg.AllocRounds),
		BytesPerOp:  float64(bytes) / float64(cfg.AllocRounds),
		ZeroAlloc:   mallocs/uint64(cfg.AllocRounds) == 0,
	}, nil
}

// runBatchBacklog runs one parked-worker arm: a two-worker gated shard
// with worker 0 parked at the traversal head breakpoint by a sacrificial
// request, then a fixed operation budget served through the surviving
// worker by two clients, then the worker released so the shard closes
// clean.
func runBatchBacklog(cfg BatchConfig, scheme string, nofuse bool) (BatchBacklogArm, error) {
	mode := "fused"
	if nofuse {
		mode = "per-op"
	}
	bp := sched.NewBreakpoints()
	workers := cfg.Workers
	if workers < 2 {
		workers = 2 // one to park, one to serve
	}
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    scheme,
			Structure: "michael",
			Workers:   workers,
			Gate:      bp,
			NoFuse:    nofuse,
		}},
		KeyRange: cfg.KeyRange,
	})
	if err != nil {
		return BatchBacklogArm{}, err
	}
	defer st.Close()
	src, err := workload.New(workload.Config{
		KeyRange: cfg.KeyRange,
		Mix:      MixBalanced,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return BatchBacklogArm{}, err
	}
	batch := 32
	if err := prefillHalf(st, cfg.KeyRange, batch, cfg.Seed); err != nil {
		return BatchBacklogArm{}, err
	}
	// The sacrificial client churns single-op requests until one lands on
	// worker 0 and parks there; it stays blocked in Contains until the
	// stall releases.
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	stop := make(chan struct{})
	parked := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				parked <- nil
				return
			default:
			}
			if _, err := st.Contains(1); err != nil {
				parked <- err
				return
			}
		}
	}()
	select {
	case <-stall.Reached():
	case err := <-parked: // the store failed before worker 0 parked
		return BatchBacklogArm{}, err
	}
	t, err := storeClients{st: st, src: src, clients: 2, batch: batch, ops: cfg.BacklogOps / 2}.run()
	close(stop)
	stall.Release()
	if perr := <-parked; err == nil {
		err = perr
	}
	if err != nil {
		return BatchBacklogArm{}, err
	}
	if err := st.Close(); err != nil {
		return BatchBacklogArm{}, err
	}
	return BatchBacklogArm{
		Mode:        mode,
		Ops:         t.ops,
		PeakRetired: st.Stats().MaxRetired,
	}, nil
}

// RunBatch runs all three sections of EXP-BATCH, baseline arms last so
// each pair reads fused-first in the artifact.
func RunBatch(cfg BatchConfig) (BatchResult, error) {
	cfg.fill()
	var res BatchResult
	for _, scheme := range cfg.Schemes {
		for _, batch := range cfg.Batches {
			fused, err := runBatchArm(cfg, scheme, batch, false)
			if err != nil {
				return BatchResult{}, err
			}
			serial, err := runBatchArm(cfg, scheme, batch, true)
			if err != nil {
				return BatchResult{}, err
			}
			pair := BatchPair{Scheme: scheme, Batch: batch, Fused: fused, Serial: serial}
			if serial.MopsPerSec > 0 {
				pair.Ratio = fused.MopsPerSec / serial.MopsPerSec
			}
			if pair.Ratio > res.BestRatio {
				res.BestRatio = pair.Ratio
			}
			res.Pairs = append(res.Pairs, pair)
		}
	}
	allocs, err := runBatchAllocs(cfg)
	if err != nil {
		return BatchResult{}, err
	}
	res.Allocs = allocs
	res.BacklogBounded = true
	for _, scheme := range cfg.Schemes {
		fused, err := runBatchBacklog(cfg, scheme, false)
		if err != nil {
			return BatchResult{}, err
		}
		serial, err := runBatchBacklog(cfg, scheme, true)
		if err != nil {
			return BatchResult{}, err
		}
		pair := BatchBacklogPair{Scheme: scheme, Fused: fused, Serial: serial}
		pair.Bounded = fused.PeakRetired <= 2*serial.PeakRetired+backlogFloor
		if !pair.Bounded {
			res.BacklogBounded = false
		}
		res.Backlog = append(res.Backlog, pair)
	}
	res.FusedBeatsSerial = res.BestRatio >= 1.15
	res.ZeroAlloc = allocs.ZeroAlloc
	return res, nil
}
