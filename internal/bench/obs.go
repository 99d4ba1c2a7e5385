package bench

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ObsConfig sizes the observability experiment (EXP-OBS): an adaptive
// fleet under staggered, self-healing faults with the full plane wired —
// flight recorder on every subsystem, SLO monitor on the request path —
// whose product is the causal timeline
// (fault fired → backlog inflection → verdict flip → migration → heal)
// with detection/reaction latencies, plus a recorder-on/off overhead A/B.
type ObsConfig struct {
	// Shards is the fleet size; 0 selects 2. Every shard starts on
	// StartScheme and carries its own staggered fault.
	Shards int
	// StartScheme is the (deliberately non-robust) starting rung; empty
	// selects the ladder's bottom.
	StartScheme string
	// Ladder is the controller's migration ladder; empty selects
	// ebr → ibr → hp.
	Ladder []string
	// Structure is the per-shard set structure; empty selects "hashmap".
	Structure string
	// WorkersPerShard sizes each pool; 0 selects one survivor above the
	// parking-fault count (min 2), as in EXP-CHAOS.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects 2 × Shards.
	Clients int
	// Batch is operations per service request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Threshold is the retire-scan threshold; 0 selects 16.
	Threshold int
	// SlotsPerShard sizes each shard heap; 0 selects 1<<18.
	SlotsPerShard int
	// Duration is the traffic window; 0 selects 1s — room for the last
	// staggered fault's full chain to close.
	Duration time.Duration
	// FaultAfter delays shard 0's fault; 0 selects Duration/8.
	FaultAfter time.Duration
	// Stagger spaces consecutive shards' faults; 0 selects Duration/16.
	Stagger time.Duration
	// Hold is each fault's held window before it self-heals; 0 selects
	// Duration/2 — the heal lands mid-run, so the chain closes on tape.
	Hold time.Duration
	// Faults names the chaos faults, one per shard each; empty selects
	// ["delayed-release"].
	Faults []string
	// SampleInterval is the telemetry tick; 0 derives ~200 samples per
	// window clamped to [200µs, 5ms].
	SampleInterval time.Duration
	// DecideInterval is the controller tick; 0 selects Duration/32
	// clamped to [5ms, 25ms].
	DecideInterval time.Duration
	// Hysteresis is the controller's consecutive-verdict requirement;
	// 0 selects 2.
	Hysteresis int
	// SLOTarget is the p99 service-request objective; 0 selects 50ms
	// (breaches are informative, not required — "robust but slow" is a
	// state the plane reports, not one the experiment engineers).
	SLOTarget time.Duration
	// RecorderCapacity is the per-stripe ring size; 0 sizes it to the
	// window — scanEventsPerSec × Duration rounded up to a power of two,
	// at least 1<<15 — so the window's scan events cannot wrap the early
	// fault fires out of the ring (the default rec capacity is sized for
	// always-on deployments, where a wrapped suffix is the point; the
	// experiment wants the whole tape).
	RecorderCapacity int
	// OverheadRounds is how many recorder-on/off round *pairs* the
	// overhead A/B runs (each arm's best round is compared); 0 selects
	// 3, negative disables the A/B.
	OverheadRounds int
	// OverheadRoundDuration is one A/B round's traffic window; 0 selects
	// 120ms.
	OverheadRoundDuration time.Duration
	// Mix, Workload, Schedule name the traffic shape; zero values select
	// balanced/uniform/steady.
	Mix      Mix
	Workload string
	Schedule string
	// Seed makes client streams deterministic.
	Seed uint64
}

// scanEventsPerSec is the per-stripe event rate the default recorder
// capacity provisions for. SMR scan events dominate the tape; a faulted
// two-shard fleet on a contended 2-core box peaks near 40k per shard
// per second, so this leaves about 1.6x headroom.
const scanEventsPerSec = 1 << 16

func (cfg *ObsConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = []string{"ebr", "ibr", "hp"}
	}
	if cfg.StartScheme == "" {
		cfg.StartScheme = cfg.Ladder[0]
	}
	if cfg.Structure == "" {
		cfg.Structure = "hashmap"
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = []string{"delayed-release"}
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = survivorWorkers(cfg.Faults)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * cfg.Shards
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 2048
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 16
	}
	if cfg.SlotsPerShard <= 0 {
		cfg.SlotsPerShard = 1 << 18
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.FaultAfter <= 0 {
		cfg.FaultAfter = cfg.Duration / 8
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = cfg.Duration / 16
	}
	if cfg.Hold <= 0 {
		cfg.Hold = cfg.Duration / 2
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = sampleEvery(cfg.Duration)
	}
	if cfg.DecideInterval <= 0 {
		cfg.DecideInterval = clamp(cfg.Duration/32, 5*time.Millisecond, 25*time.Millisecond)
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 2
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = 50 * time.Millisecond
	}
	if cfg.RecorderCapacity <= 0 {
		cfg.RecorderCapacity = 1 << 15
		for cfg.RecorderCapacity < int(cfg.Duration.Seconds()*scanEventsPerSec) {
			cfg.RecorderCapacity <<= 1
		}
	}
	if cfg.OverheadRounds == 0 {
		cfg.OverheadRounds = 3
	}
	if cfg.OverheadRoundDuration <= 0 {
		cfg.OverheadRoundDuration = 120 * time.Millisecond
	}
	if cfg.Workload == "" {
		cfg.Workload = "uniform"
	}
	if cfg.Schedule == "" {
		cfg.Schedule = "steady"
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
}

// ObsOverhead is the recorder-on vs recorder-off throughput A/B: the
// plane's budget is ≤5% of throughput, and this is where the claim is
// measured rather than asserted.
type ObsOverhead struct {
	Rounds          int     `json:"rounds"`
	RecorderOnMops  float64 `json:"recorder_on_mops"`
	RecorderOffMops float64 `json:"recorder_off_mops"`
	// DeltaPct is the throughput lost with the recorder on, comparing
	// each arm's best round, as a percentage of the recorder-off rate;
	// clamped at 0 (a negative delta is measurement noise, not a
	// speedup).
	DeltaPct float64 `json:"delta_pct"`
	// OK reports DeltaPct ≤ 5.
	OK bool `json:"ok"`
}

// ObsAggregate echoes the configuration and the client-side measurement.
type ObsAggregate struct {
	Shards      int           `json:"shards"`
	StartScheme string        `json:"start_scheme"`
	Ladder      []string      `json:"ladder"`
	Structure   string        `json:"structure"`
	Faults      []string      `json:"faults"`
	Workers     int           `json:"workers_per_shard"`
	Clients     int           `json:"clients"`
	Batch       int           `json:"batch"`
	KeyRange    int           `json:"key_range"`
	Duration    time.Duration `json:"duration_ns"`
	FaultAfter  time.Duration `json:"fault_after_ns"`
	Stagger     time.Duration `json:"stagger_ns"`
	Hold        time.Duration `json:"hold_ns"`
	SLOTarget   time.Duration `json:"slo_target_ns"`
	Seed        uint64        `json:"seed"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	Ops         uint64        `json:"ops"`
	OpErrs      uint64        `json:"op_errs"`
	MopsPerSec  float64       `json:"mops_per_sec"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
}

// ObsResult is the observability experiment's outcome: the joined causal
// timeline, the SLO trace, the raw event tape (for the Chrome trace),
// the evidence series, and the overhead A/B.
type ObsResult struct {
	Agg      ObsAggregate `json:"aggregate"`
	Timeline obs.Timeline `json:"timeline"`
	// Complete reports every injected fault's chain closed (fault →
	// verdict → migration → heal) — the acceptance headline.
	Complete bool             `json:"complete"`
	SLO      obs.SLOSnapshot  `json:"slo"`
	Sampler  telemetry.Health `json:"sampler"`
	// RecorderTotal/Drops account for the tape itself; nonzero drops mean
	// the ring wrapped and the timeline read a suffix.
	RecorderTotal uint64 `json:"recorder_total"`
	RecorderDrops uint64 `json:"recorder_drops"`
	// Episodes is the controller's migration log; Events the raw recorder
	// tape (stamp-ordered); Series the per-shard sampled trajectories.
	Episodes []adapt.Episode           `json:"episodes"`
	Events   []rec.Event               `json:"events"`
	Series   map[int][]telemetry.Point `json:"series,omitempty"`
	Overhead ObsOverhead               `json:"overhead"`
}

// Gates returns EXP-OBS's acceptance gates: every injected fault's
// causal chain closed, every incident's detection latency is finite, and
// the recorder costs at most 5% of throughput (when the A/B ran).
func (r ObsResult) Gates() map[string]bool {
	finite := len(r.Timeline.Incidents) > 0
	for _, in := range r.Timeline.Incidents {
		finite = finite && in.DetectionLatency >= 0
	}
	return map[string]bool{
		"chains_complete":  r.Complete,
		"detection_finite": finite,
		"overhead_ok":      r.Overhead.Rounds <= 0 || r.Overhead.OK,
	}
}

// RunObs runs EXP-OBS: an adaptive fleet of Shards identical shards on
// the ladder's bottom rung, one staggered self-healing fault per shard,
// every subsystem stamping the shared flight recorder, the SLO monitor
// fed from the live request path — then joins the tape into per-incident
// causal chains and measures the recorder's own throughput cost.
func RunObs(cfg ObsConfig) (ObsResult, error) {
	cfg.fill()

	clock := rec.NewClock()
	recorder := rec.NewRecorder(clock, cfg.RecorderCapacity)

	grace := cfg.Duration / 16
	if grace < 10*time.Millisecond {
		grace = 10 * time.Millisecond
	}
	gates := make([]*sched.Breakpoints, cfg.Shards)
	specs := make([]store.ShardSpec, cfg.Shards)
	for i := range specs {
		gates[i] = sched.NewBreakpoints()
		specs[i] = store.ShardSpec{
			Scheme:    cfg.StartScheme,
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			Threshold: cfg.Threshold,
			Slots:     cfg.SlotsPerShard,
			Gate:      gates[i],
		}
	}
	st, err := store.New(store.Config{
		Shards:       specs,
		KeyRange:     cfg.KeyRange,
		MigrateGrace: grace,
		Recorder:     recorder,
	})
	if err != nil {
		return ObsResult{}, err
	}
	defer st.Close()

	src, err := workload.New(workload.Config{
		Dist:     cfg.Workload,
		Schedule: cfg.Schedule,
		KeyRange: cfg.KeyRange,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return ObsResult{}, err
	}
	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		return ObsResult{}, err
	}

	// The monitor: domain i = shard i, verdict flips mirrored onto the
	// tape — the detection half of every incident chain.
	mon, err := verdictMonitor(st, recorder)
	if err != nil {
		return ObsResult{}, err
	}
	sampler := telemetry.NewSampler(telemetry.Config{
		Interval: cfg.SampleInterval,
		Capacity: 4096,
		OnSample: mon.Observe,
		Clock:    clock,
		Recorder: recorder,
	}, storeProbe(st))

	ctl, err := adapt.New(adapt.Config{
		Ladder:     cfg.Ladder,
		Interval:   cfg.DecideInterval,
		Hysteresis: cfg.Hysteresis,
		Clock:      clock,
		Recorder:   recorder,
	}, st, mon)
	if err != nil {
		return ObsResult{}, err
	}

	// One self-healing fault per shard, staggered so the incidents are
	// separable on the tape.
	target := &chaos.Target{Store: st, Gates: gates, KeyRange: cfg.KeyRange}
	engine := chaos.NewEngine(target)
	engine.SetObs(clock, recorder)
	for s := 0; s < cfg.Shards; s++ {
		fault := cfg.Faults[s%len(cfg.Faults)]
		after := cfg.FaultAfter + time.Duration(s)*cfg.Stagger
		if err := engine.Add(fault, chaos.Params{Shard: s}, chaos.Schedule{
			After:    after,
			Hold:     cfg.Hold,
			Episodes: 1,
		}); err != nil {
			return ObsResult{}, err
		}
	}

	slo := obs.NewSLO(cfg.SLOTarget, 512, clock, recorder)

	sampler.Start()
	engine.Start()
	ctl.Start()
	slo.Start(cfg.SampleInterval)
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	// Deadline watchdog, as in the chaos and adaptive runs: freeze the
	// policy, snapshot the evidence, then stop the engine. The faults
	// self-heal at Hold, so by the deadline the engine is normally idle.
	series := make(map[int][]telemetry.Point, cfg.Shards)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(time.Until(deadline))
		ctl.Stop()
		for s := 0; s < cfg.Shards; s++ {
			series[s] = sampler.Series(s).Points()
		}
		engine.Stop()
	}()
	t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch, deadline: deadline, observe: slo.Observe}.run()
	<-healed
	elapsed := time.Since(start)
	slo.Stop()
	sampler.Stop()
	if err != nil {
		return ObsResult{}, err
	}
	if err := st.Close(); err != nil {
		return ObsResult{}, err
	}

	events := recorder.Snapshot()
	tl := obs.BuildTimeline(events, series, elapsed)

	res := ObsResult{
		Agg: ObsAggregate{
			Shards:      cfg.Shards,
			StartScheme: cfg.StartScheme,
			Ladder:      cfg.Ladder,
			Structure:   cfg.Structure,
			Faults:      cfg.Faults,
			Workers:     cfg.WorkersPerShard,
			Clients:     cfg.Clients,
			Batch:       cfg.Batch,
			KeyRange:    cfg.KeyRange,
			Duration:    cfg.Duration,
			FaultAfter:  cfg.FaultAfter,
			Stagger:     cfg.Stagger,
			Hold:        cfg.Hold,
			SLOTarget:   cfg.SLOTarget,
			Seed:        cfg.Seed,
			Elapsed:     elapsed,
			Ops:         t.ops,
			OpErrs:      t.errs,
			MopsPerSec:  float64(t.ops) / elapsed.Seconds() / 1e6,
			P50:         t.lat.Percentile(0.50),
			P99:         t.lat.Percentile(0.99),
		},
		Timeline:      tl,
		Complete:      tl.Complete() && len(tl.Incidents) == cfg.Shards,
		SLO:           slo.Snapshot(),
		Sampler:       sampler.Health(),
		RecorderTotal: recorder.Total(),
		RecorderDrops: recorder.Drops(),
		Episodes:      ctl.Episodes(),
		Events:        events,
		Series:        series,
	}

	if cfg.OverheadRounds > 0 {
		oh, err := measureObsOverhead(cfg)
		if err != nil {
			return ObsResult{}, err
		}
		res.Overhead = oh
	}
	return res, nil
}

// measureObsOverhead runs recorder-on/recorder-off traffic rounds over a
// faultless clone of the fleet through bestOfPairs and compares each
// arm's best round.
func measureObsOverhead(cfg ObsConfig) (ObsOverhead, error) {
	round := func(withRecorder bool, i int) (float64, float64, error) {
		seed := cfg.Seed + uint64(i)*7919
		var recorder *rec.Recorder
		if withRecorder {
			recorder = rec.NewRecorder(nil, cfg.RecorderCapacity)
		}
		st, err := store.New(store.Config{
			Shards: store.Uniform(cfg.Shards, store.ShardSpec{
				Scheme:    cfg.StartScheme,
				Structure: cfg.Structure,
				Workers:   cfg.WorkersPerShard,
				Threshold: cfg.Threshold,
				Slots:     cfg.SlotsPerShard,
			}),
			KeyRange: cfg.KeyRange,
			Recorder: recorder,
		})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		src, err := workload.New(workload.Config{
			Dist:     cfg.Workload,
			Schedule: cfg.Schedule,
			KeyRange: cfg.KeyRange,
			Mix:      cfg.Mix,
			Seed:     seed,
		})
		if err != nil {
			return 0, 0, err
		}
		if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, seed); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch,
			deadline: start.Add(cfg.OverheadRoundDuration)}.run()
		mops := float64(t.ops) / time.Since(start).Seconds() / 1e6
		return mops, mops, err
	}
	off, on, err := bestOfPairs(cfg.OverheadRounds, round)
	if err != nil {
		return ObsOverhead{}, err
	}
	oh := ObsOverhead{
		Rounds:          cfg.OverheadRounds,
		RecorderOnMops:  on,
		RecorderOffMops: off,
	}
	if oh.RecorderOffMops > 0 {
		oh.DeltaPct = (oh.RecorderOffMops - oh.RecorderOnMops) / oh.RecorderOffMops * 100
	}
	if oh.DeltaPct < 0 {
		oh.DeltaPct = 0
	}
	oh.OK = oh.DeltaPct <= 5
	return oh, nil
}
