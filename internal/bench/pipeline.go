package bench

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/hist"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// PipelineConfig sizes EXP-PIPELINE: the blocking-loop vs pipelined
// scatter-gather A/B over a multi-key/range request mix, plus the
// partial-failure campaign that stalls one shard under chaos and checks
// the executor degrades it instead of the whole fan-out.
type PipelineConfig struct {
	// Shards is the shard count; 0 selects 4.
	Shards int
	// Schemes assigns reclamation schemes shard-by-shard (cycled); empty
	// selects ["ebr"].
	Schemes []string
	// Structure is the per-shard set structure; empty selects "michael"
	// (ordered iteration lets range legs early-stop at the upper bound).
	Structure string
	// WorkersPerShard sizes shard worker pools; 0 selects 1, so the
	// campaign's stall fully parks its shard — the case where partial
	// results and saturation shedding must carry the service.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects Shards.
	Clients int
	// Duration is each A/B round's traffic window; 0 selects 1s.
	Duration time.Duration
	// ChaosDuration is the campaign window; 0 selects Duration.
	ChaosDuration time.Duration
	// Window is the pipelined arm's per-client in-flight budget; 0
	// selects 8. The blocking arm is Window = 1 by construction.
	Window int
	// KeyRange is the key universe; 0 selects 4096.
	KeyRange int
	// ReqMix shapes the request stream; zero selects ReqMixFanout (every
	// request scatters — the shape the executor exists for).
	ReqMix workload.ReqMix
	// Dist names the key distribution; empty selects "uniform".
	Dist string
	// MultiSize is the key count per multi-key request; 0 selects 8.
	MultiSize int
	// QueueDepth and DispatchersPerShard size the executor; 0 selects the
	// executor's defaults (the campaign narrows QueueDepth to 8 so
	// admission pressure is visible inside a short window).
	QueueDepth          int
	DispatchersPerShard int
	// LegTimeout is the campaign's leg completion budget; 0 selects 25ms.
	// The healthy A/B arms run with the executor default.
	LegTimeout time.Duration
	// FaultShard is the campaign's stalled shard; 0 selects 1.
	FaultShard int
	// Seed makes every request stream deterministic.
	Seed uint64
}

func (cfg *PipelineConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr"}
	}
	if cfg.Structure == "" {
		cfg.Structure = "michael"
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Shards
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.ChaosDuration <= 0 {
		cfg.ChaosDuration = cfg.Duration
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 4096
	}
	if cfg.ReqMix == (workload.ReqMix{}) {
		cfg.ReqMix = workload.ReqMixFanout
	}
	if cfg.Dist == "" {
		cfg.Dist = "uniform"
	}
	if cfg.MultiSize <= 0 {
		cfg.MultiSize = 8
	}
	if cfg.LegTimeout <= 0 {
		cfg.LegTimeout = 25 * time.Millisecond
	}
	if cfg.FaultShard <= 0 {
		cfg.FaultShard = 1
	}
}

// PipelineArmRow is one A/B arm's measurement. Requests are whole
// cross-shard requests (a multiget, a range scan); P50/P99 are
// request completion latencies — submit to merged result.
type PipelineArmRow struct {
	Arm        string        `json:"arm"`
	Requests   uint64        `json:"requests"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	ReqPerSec  float64       `json:"req_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	Partial    uint64        `json:"partial,omitempty"`
	Sheds      uint64        `json:"sheds,omitempty"`
	Timeouts   uint64        `json:"timeouts,omitempty"`
	ReqPerSecX float64       `json:"speedup_vs_blocking,omitempty"`
}

// PipelineChaosRow is the partial-failure campaign's measurement: the
// fan-out picture while one shard is chaos-stalled, and whether the
// failure chain closed (fault fired → typed partial results → heal →
// clean request).
type PipelineChaosRow struct {
	FaultShard int           `json:"fault_shard"`
	Window     time.Duration `json:"window_ns"`
	Requests   uint64        `json:"requests"`
	Partial    uint64        `json:"partial"`
	Sheds      uint64        `json:"sheds"`
	Timeouts   uint64        `json:"timeouts"`
	// DegradedSeen reports the stalled shard observed effectively
	// degraded during the window — the verdict loop flipping it, or its
	// stalled-call budget saturating (the fully-parked case).
	DegradedSeen bool `json:"degraded_seen"`
	// HealthyP50/P99 are completion latencies of the *non-partial*
	// requests in the window — the tail the surviving shards serve while
	// one shard is parked.
	HealthyP50 time.Duration `json:"healthy_p50_ns"`
	HealthyP99 time.Duration `json:"healthy_p99_ns"`
	FaultFired bool          `json:"fault_fired"`
	FaultHeals bool          `json:"fault_healed"`
	// CleanAfterHeal is the chain's last link: a full-width request after
	// heal with no partial errors.
	CleanAfterHeal bool `json:"clean_after_heal"`
	// ScatterEvents/MergeEvents/ShedEvents count the exec events on the
	// campaign's flight recorder.
	ScatterEvents int `json:"scatter_events"`
	MergeEvents   int `json:"merge_events"`
	ShedEvents    int `json:"shed_events"`
}

// PipelineResult is the full EXP-PIPELINE outcome.
type PipelineResult struct {
	Blocking  PipelineArmRow   `json:"blocking"`
	Pipelined PipelineArmRow   `json:"pipelined"`
	Chaos     PipelineChaosRow `json:"chaos"`
	// PipelinedBeatsBlocking and PartialChainsClosed are the experiment's
	// two acceptance booleans (the CI smoke greps them).
	PipelinedBeatsBlocking bool `json:"pipelined_beats_blocking"`
	PartialChainsClosed    bool `json:"partial_chains_closed"`
}

// Gates returns EXP-PIPELINE's acceptance gates: the pipelined arm's
// best round out-ran the blocking arm's, and the partial-failure chain
// closed (fault fired → typed partial results → heal → clean full-width
// request).
func (r PipelineResult) Gates() map[string]bool {
	return map[string]bool{
		"pipelined_beats_blocking": r.PipelinedBeatsBlocking,
		"partial_chains_closed":    r.PartialChainsClosed,
	}
}

// newPipelineStore builds the experiment store (gated when the campaign
// needs chaos hooks) and prefills it to half occupancy.
func newPipelineStore(cfg PipelineConfig, gated bool, recorder *rec.Recorder) (*store.Store, []*sched.Breakpoints, error) {
	specs := make([]store.ShardSpec, cfg.Shards)
	var gates []*sched.Breakpoints
	if gated {
		gates = make([]*sched.Breakpoints, cfg.Shards)
	}
	for i := range specs {
		specs[i] = store.ShardSpec{
			Scheme:    cfg.Schemes[i%len(cfg.Schemes)],
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
		}
		if gated {
			gates[i] = sched.NewBreakpoints()
			specs[i].Gate = gates[i]
		}
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: cfg.KeyRange, Recorder: recorder})
	if err != nil {
		return nil, nil, err
	}
	if err := prefillHalf(st, cfg.KeyRange, 64, cfg.Seed); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, gates, nil
}

// reqStreams draws one deterministic request stream per client.
func reqStreams(rcfg workload.ReqConfig, clients int) (func(c int) workload.Req, error) {
	src, err := workload.NewReqSource(rcfg)
	if err != nil {
		return nil, err
	}
	streams := make([]*workload.ReqStream, clients)
	for c := range streams {
		streams[c] = src.Thread(c, 1<<20)
	}
	return func(c int) workload.Req { return streams[c].Next() }, nil
}

func (cfg PipelineConfig) reqStreams() (func(c int) workload.Req, error) {
	return reqStreams(workload.ReqConfig{
		Dist:      cfg.Dist,
		KeyRange:  cfg.KeyRange,
		Mix:       cfg.ReqMix,
		MultiSize: cfg.MultiSize,
		Seed:      cfg.Seed,
	}, cfg.Clients)
}

// blockingExecute serves one request the pre-exec way. Per-op errors are
// service behaviour (absorbed); only store-level failures propagate.
func blockingExecute(st *store.Store, req workload.Req) error {
	switch req.Kind {
	case workload.ReqPoint, workload.ReqMultiGet, workload.ReqMultiInsert, workload.ReqMultiDelete:
		ops := make([]store.Op, len(req.Keys))
		for i, k := range req.Keys {
			ops[i] = store.Op{Kind: workload.OpContains, Key: k}
			switch req.Kind {
			case workload.ReqPoint:
				ops[i].Kind = req.Ops[i]
			case workload.ReqMultiInsert:
				ops[i].Kind = workload.OpInsert
			case workload.ReqMultiDelete:
				ops[i].Kind = workload.OpDelete
			}
		}
		_, err := st.Do(ops)
		return err
	case workload.ReqRangeScan, workload.ReqRangeCount:
		for s := 0; s < st.Shards(); s++ {
			if _, _, err := st.ScanShard(s, req.Lo, req.Hi, 0, req.Kind == workload.ReqRangeCount); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown request kind %v", req.Kind)
	}
}

// pipeTally is what a pipelined drive measured: requests completed,
// partial results, and completion latencies for all requests and for
// the fully successful ("healthy") ones alone.
type pipeTally struct {
	reqs, partial uint64
	lat, healthy  hist.Latency
}

// drivePipelined drives the executor with a per-client window of
// asynchronous handles: submit until the window is full, then retire the
// oldest — the pipelining the exec layer buys.
func drivePipelined(ex *exec.Executor, cfg PipelineConfig, deadline time.Time) (pipeTally, error) {
	next, err := cfg.reqStreams()
	if err != nil {
		return pipeTally{}, err
	}
	type client struct {
		window        []*exec.Handle
		reqs, partial uint64
		healthy       hist.Latency
	}
	cs := make([]client, cfg.Clients)
	retire := func(c int, h *exec.Handle) time.Duration {
		res := h.Wait()
		cs[c].reqs++
		if res.Partial() {
			cs[c].partial++
		} else {
			cs[c].healthy.Record(res.Elapsed)
		}
		return res.Elapsed
	}
	lat, err := drive(load{clients: cfg.Clients, deadline: deadline}, next,
		func(c int, req workload.Req) (time.Duration, error) {
			h, err := ex.Submit(req)
			if err != nil {
				return 0, err
			}
			cl := &cs[c]
			cl.window = append(cl.window, h)
			if len(cl.window) < cfg.Window {
				return 0, nil
			}
			oldest := cl.window[0]
			cl.window = append(cl.window[:0], cl.window[1:]...)
			return retire(c, oldest), nil
		})
	t := pipeTally{lat: lat}
	for c := range cs {
		for _, h := range cs[c].window {
			t.lat.Record(retire(c, h))
		}
		t.reqs += cs[c].reqs
		t.partial += cs[c].partial
		t.healthy.Merge(&cs[c].healthy)
	}
	return t, err
}

// runPipelineArm runs one healthy A/B round on a fresh store: the
// blocking baseline — each client executes one request at a time against
// the store's native interface and waits for the answer — or the
// pipelined executor.
func runPipelineArm(cfg PipelineConfig, pipelined bool) (PipelineArmRow, error) {
	st, _, err := newPipelineStore(cfg, false, nil)
	if err != nil {
		return PipelineArmRow{}, err
	}
	defer st.Close()
	row := PipelineArmRow{Arm: "blocking"}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	if pipelined {
		// The healthy arm disables the leg budget: there is no fault to
		// bound, and the budget's watchdog goroutine would tax every leg.
		// The campaign re-enables it and pays for it there.
		ex, err := exec.New(st, exec.Config{
			QueueDepth:          cfg.QueueDepth,
			DispatchersPerShard: cfg.DispatchersPerShard,
			LegTimeout:          -1,
		})
		if err != nil {
			return row, err
		}
		t, err := drivePipelined(ex, cfg, deadline)
		row.Elapsed = time.Since(start)
		stats := ex.Stats()
		if cerr := ex.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return row, err
		}
		row.Arm, row.Requests, row.Partial = "pipelined", t.reqs, t.partial
		row.Sheds, row.Timeouts = stats.Sheds, stats.Timeouts
		row.P50, row.P99 = t.lat.Percentile(0.50), t.lat.Percentile(0.99)
	} else {
		next, err := cfg.reqStreams()
		if err != nil {
			return row, err
		}
		reqs := make([]uint64, cfg.Clients)
		lat, err := drive(load{clients: cfg.Clients, deadline: deadline}, next,
			func(c int, req workload.Req) (time.Duration, error) {
				t0 := time.Now()
				if err := blockingExecute(st, req); err != nil {
					return 0, err
				}
				reqs[c]++
				return time.Since(t0), nil
			})
		row.Elapsed = time.Since(start)
		if err != nil {
			return row, err
		}
		for _, n := range reqs {
			row.Requests += n
		}
		row.P50, row.P99 = lat.Percentile(0.50), lat.Percentile(0.99)
	}
	row.ReqPerSec = float64(row.Requests) / row.Elapsed.Seconds()
	return row, st.Close()
}

// pipelineRounds is how many blocking/pipelined round pairs the A/B runs.
const pipelineRounds = 3

// RunPipeline runs EXP-PIPELINE: the blocking vs pipelined A/B over
// paired rounds on identical fresh stores, then the partial-failure
// campaign under a chaos stall with the verdict-driven admission loop
// live. Every phase uses the same seed, so the arms draw identical
// request streams.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	cfg.fill()
	var res PipelineResult
	var err error
	res.Blocking, res.Pipelined, err = bestOfPairs(pipelineRounds, func(pipelined bool, _ int) (PipelineArmRow, float64, error) {
		row, err := runPipelineArm(cfg, pipelined)
		return row, row.ReqPerSec, err
	})
	if err != nil {
		return res, err
	}
	if res.Blocking.ReqPerSec > 0 {
		res.Pipelined.ReqPerSecX = res.Pipelined.ReqPerSec / res.Blocking.ReqPerSec
	}
	res.PipelinedBeatsBlocking = res.Pipelined.ReqPerSec > res.Blocking.ReqPerSec

	// Campaign: stall one shard under live traffic with the full
	// admission loop (sampler → monitor → verdict → degrade) attached.
	chaosRow, err := runPipelineChaos(cfg)
	if err != nil {
		return res, err
	}
	res.Chaos = chaosRow
	res.PartialChainsClosed = chaosRow.FaultFired && chaosRow.Partial > 0 &&
		chaosRow.FaultHeals && chaosRow.CleanAfterHeal
	return res, nil
}

// runPipelineChaos is the partial-failure campaign: a gated store, the
// verdict-driven admission loop live, one shard chaos-stalled for the
// window, pipelined traffic throughout, then heal and a clean full-width
// probe.
func runPipelineChaos(cfg PipelineConfig) (PipelineChaosRow, error) {
	row := PipelineChaosRow{FaultShard: cfg.FaultShard, Window: cfg.ChaosDuration}
	recorder := rec.NewRecorder(nil, 0)
	st, gates, err := newPipelineStore(cfg, true, recorder)
	if err != nil {
		return row, err
	}
	defer st.Close()

	// The admission loop: gauge-tap sampler → online monitor →
	// VerdictAdmission, the same classifier the adaptive controller
	// trusts.
	mon, err := verdictMonitor(st, nil)
	if err != nil {
		return row, err
	}
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: sampleEvery(cfg.ChaosDuration), Capacity: 4096,
			OnSample: mon.Observe, Recorder: recorder},
		storeProbe(st))
	sampler.Start()
	defer sampler.Stop()

	queueDepth := cfg.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 8 // narrow enough that a stalled shard's pressure shows
	}
	ex, err := exec.New(st, exec.Config{
		QueueDepth:          queueDepth,
		DispatchersPerShard: cfg.DispatchersPerShard,
		LegTimeout:          cfg.LegTimeout,
		Admission:           exec.VerdictAdmission{Mon: mon},
		Recorder:            recorder,
	})
	if err != nil {
		return row, err
	}
	defer ex.Close()

	target := &chaos.Target{Store: st, Gates: gates, KeyRange: cfg.KeyRange}
	engine := chaos.NewEngine(target)
	engine.SetObs(nil, recorder)
	if err := engine.Add("stall", chaos.Params{Shard: cfg.FaultShard}, chaos.OneShot(0)); err != nil {
		return row, err
	}
	engine.Start()

	deadline := time.Now().Add(cfg.ChaosDuration)
	degraded := make(chan bool, 1)
	go func() {
		// Watch for the verdict loop flipping the stalled shard while
		// traffic runs; one observation is enough.
		for time.Now().Before(deadline) {
			if ex.Degraded(cfg.FaultShard) {
				degraded <- true
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		degraded <- false
	}()
	t, err := drivePipelined(ex, cfg, deadline)
	row.DegradedSeen = <-degraded
	if err != nil {
		engine.Stop()
		return row, err
	}
	stats := ex.Stats()
	row.Requests = t.reqs
	row.Partial = t.partial
	row.Sheds = stats.Sheds
	row.Timeouts = stats.Timeouts
	row.HealthyP50 = t.healthy.Percentile(0.50)
	row.HealthyP99 = t.healthy.Percentile(0.99)

	for _, ev := range engine.Events() {
		if ev.Fault == "stall" {
			row.FaultFired = ev.Err == ""
		}
	}
	// Heal (Stop releases the held one-shot), then close the chain with a
	// full-width probe: every shard answers, no partial errors.
	engine.Stop()
	for _, ev := range engine.Events() {
		if ev.Fault == "stall" && ev.Healed > 0 {
			row.FaultHeals = true
		}
	}
	cleanDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(cleanDeadline) {
		h, err := ex.RangeCount(0, int64(cfg.KeyRange))
		if err != nil {
			return row, err
		}
		if !h.Wait().Partial() {
			row.CleanAfterHeal = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, ev := range recorder.Snapshot() {
		switch ev.Kind {
		case rec.KindExecScatter:
			row.ScatterEvents++
		case rec.KindExecMerge:
			row.MergeEvents++
		case rec.KindExecShed:
			row.ShedEvents++
		}
	}
	return row, nil
}
