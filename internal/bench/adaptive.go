package bench

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// AdaptiveConfig sizes the adaptive-reclamation experiment (EXP-ADAPT):
// two identical single-shard fleets run the same seeded traffic under
// the same chaos fault — one pinned to its starting scheme (the static
// control), one with the adapt controller live — and the audit compares
// what each shard's backlog did before and after the controller acted.
// It is the ERA theorem as an A/B test: the control demonstrates the
// impossibility (a non-robust scheme under a reclamation-critical stall
// grows without bound), the adaptive arm demonstrates the escape hatch
// (detect it live, migrate the shard up the ladder, keep the data).
type AdaptiveConfig struct {
	// Ladder is the controller's migration ladder, cheapest first; the
	// default trio ebr → ibr → hp walks the paper's robustness classes.
	Ladder []string
	// StartScheme is both arms' initial scheme; empty selects the
	// ladder's bottom rung.
	StartScheme string
	// Structure is the shard's set structure; empty selects "hashmap".
	Structure string
	// WorkersPerShard sizes the worker pool; 0 selects one survivor
	// above the stall-family fault count (min 2), as in EXP-CHAOS.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects 4.
	Clients int
	// Batch is operations per service request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Threshold is the retire-scan threshold; 0 selects 16.
	Threshold int
	// SlotsPerShard sizes the shard heap; 0 selects a budget only a
	// genuinely unbounded backlog can exhaust (and an OOM is evidence).
	SlotsPerShard int
	// Duration is the traffic window; 0 selects 800ms — long enough for
	// fault → verdict → migration → post-migration window.
	Duration time.Duration
	// FaultAfter is the injection delay; 0 selects Duration/8.
	FaultAfter time.Duration
	// SampleInterval is the telemetry tick; 0 derives ~200 samples per
	// window clamped to [200µs, 5ms].
	SampleInterval time.Duration
	// DecideInterval is the controller tick; 0 selects Duration/32
	// clamped to [5ms, 25ms].
	DecideInterval time.Duration
	// Hysteresis is the controller's consecutive-verdict requirement;
	// 0 selects 2.
	Hysteresis int
	// Faults names the chaos faults injected into the shard; empty
	// selects ["delayed-release"] — the stall-plus-retire-storm that
	// punishes a non-robust scheme hardest.
	Faults []string
	// Mix, Workload, Schedule name the traffic shape; zero values select
	// balanced/uniform/steady.
	Mix      Mix
	Workload string
	Schedule string
	// Seed makes both arms replay identical client streams.
	Seed uint64
}

func (cfg *AdaptiveConfig) fill() {
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = []string{"ebr", "ibr", "hp"}
	}
	if cfg.StartScheme == "" {
		cfg.StartScheme = cfg.Ladder[0]
	}
	if cfg.Structure == "" {
		cfg.Structure = "hashmap"
	}
	if cfg.Workload == "" {
		cfg.Workload = "uniform"
	}
	if cfg.Schedule == "" {
		cfg.Schedule = "steady"
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = []string{"delayed-release"}
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = survivorWorkers(cfg.Faults)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
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
		cfg.Duration = 800 * time.Millisecond
	}
	if cfg.FaultAfter <= 0 {
		cfg.FaultAfter = cfg.Duration / 8
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
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
}

// AdaptiveArm is one fleet's outcome: where its shard started and ended
// on the ladder, the audited class of its faulted window before any
// migration, the live windowed verdict at the deadline (the
// post-migration class for an arm that migrated), and the migration
// episode log behind the difference.
type AdaptiveArm struct {
	Arm         string `json:"arm"` // "static" | "adaptive"
	StartScheme string `json:"start_scheme"`
	FinalScheme string `json:"final_scheme"`
	// Faulted* audit the window from fault injection up to the first
	// migration (for arms that never migrate: up to the deadline) — the
	// "before" class. The fit stops at the migration's counter reset on
	// its own, so no explicit cut is needed.
	FaultedAudited string        `json:"faulted_audited"`
	FaultedGrowth  string        `json:"faulted_growth"`
	FaultedFit     telemetry.Fit `json:"faulted_fit"`
	// Final* is the monitor's live windowed verdict at the deadline —
	// the "after" class.
	FinalAudited string        `json:"final_audited"`
	FinalGrowth  string        `json:"final_growth"`
	FinalFit     telemetry.Fit `json:"final_fit"`
	// Migrations is the controller's episode log (empty for the static
	// arm — an adaptive arm that logged none did not adapt).
	Migrations []adapt.Episode `json:"migrations"`
	// Service-side counters: client operations completed over the
	// window, client op errors (including migration swap windows), heap
	// exhaustions and the backlog watermark of the *final* shard
	// incarnation, request latencies.
	Ops         uint64        `json:"ops"`
	OpErrs      uint64        `json:"op_errs"`
	OOMs        uint64        `json:"ooms"`
	PeakRetired uint64        `json:"peak_retired"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	// Events is the arm's chaos episode log.
	Events []chaos.Event `json:"events"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// AdaptiveResult is the experiment outcome: the static control, the
// adaptive arm, and the headline comparison.
type AdaptiveResult struct {
	Static   AdaptiveArm `json:"static"`
	Adaptive AdaptiveArm `json:"adaptive"`
	// Improved reports the headline: the adaptive arm's final audited
	// class is strictly better than the static control's.
	Improved bool `json:"improved"`
}

// Gates returns EXP-ADAPT's acceptance gate: the adaptive arm's final
// audited class beat the static control's.
func (r AdaptiveResult) Gates() map[string]bool {
	return map[string]bool{"improved": r.Improved}
}

// runAdaptiveArm runs one fleet: a single gated shard on StartScheme,
// seeded closed-loop clients, the configured faults one-shot into the
// shard, a sampler feeding the online classifier throughout — and, for
// the adaptive arm, the controller deciding on it. The returned class
// is the arm's final audited class; conclusive reports whether it rests
// on real evidence (enough samples, or an OOM) rather than an empty
// window's default.
func runAdaptiveArm(cfg AdaptiveConfig, adaptive bool) (arm AdaptiveArm, class smr.RobustnessClass, conclusive bool, err error) {
	arm = AdaptiveArm{Arm: "static", StartScheme: cfg.StartScheme}
	if adaptive {
		arm.Arm = "adaptive"
	}
	// The migration grace scales with the window: a parked worker never
	// drains anyway, and every ms spent waiting is a ms the whole
	// single-shard fleet serves nothing but ErrShardClosed.
	grace := cfg.Duration / 16
	if grace < 10*time.Millisecond {
		grace = 10 * time.Millisecond
	}
	gate := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme:    cfg.StartScheme,
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			Threshold: cfg.Threshold,
			Slots:     cfg.SlotsPerShard,
			Gate:      gate,
		}},
		KeyRange:     cfg.KeyRange,
		MigrateGrace: grace,
	})
	if err != nil {
		return arm, 0, false, err
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
		return arm, 0, false, err
	}
	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		return arm, 0, false, err
	}

	startProps, err := all.Props(cfg.StartScheme)
	if err != nil {
		return arm, 0, false, err
	}
	budget := telemetry.Budget{Threads: cfg.WorkersPerShard, Threshold: cfg.Threshold}
	mon, err := verdictMonitor(st, nil)
	if err != nil {
		return arm, 0, false, err
	}
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: cfg.SampleInterval, Capacity: 4096, OnSample: mon.Observe},
		storeProbe(st))
	var ctl *adapt.Controller
	if adaptive {
		ctl, err = adapt.New(adapt.Config{
			Ladder:     cfg.Ladder,
			Interval:   cfg.DecideInterval,
			Hysteresis: cfg.Hysteresis,
		}, st, mon)
		if err != nil {
			return arm, 0, false, err
		}
	}

	target := &chaos.Target{Store: st, Gates: []*sched.Breakpoints{gate}, KeyRange: cfg.KeyRange}
	engine := chaos.NewEngine(target)
	for _, name := range cfg.Faults {
		if err := engine.Add(name, chaos.Params{Shard: 0}, chaos.OneShot(cfg.FaultAfter)); err != nil {
			return arm, 0, false, err
		}
	}

	sampler.Start()
	engine.Start()
	if ctl != nil {
		ctl.Start()
	}
	deadline := time.Now().Add(cfg.Duration)

	// Deadline watchdog, as in RunChaos: freeze the policy first (no
	// migration may race the evidence reads), snapshot the evidence, and
	// only then heal — a heal lets parked workers collapse the backlog,
	// which would contaminate the faulted window.
	var stats store.Stats
	var series []telemetry.Point
	var finalVerdict telemetry.Verdict
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(time.Until(deadline))
		if ctl != nil {
			ctl.Stop()
		}
		stats = st.Stats()
		series = sampler.Series(0).Points()
		finalVerdict = mon.Verdict(0)
		engine.Stop()
	}()
	t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch, deadline: deadline}.run()
	<-healed
	sampler.Stop()
	if err != nil {
		return arm, 0, false, err
	}
	if err := st.Close(); err != nil {
		return arm, 0, false, err
	}

	// The faulted "before" window: from the first successful injection
	// onward; the batch fit stops at a migration's counter reset on its
	// own, so it describes the pre-migration incarnation exactly.
	events := engine.Events()
	var faultAt time.Duration
	for _, ev := range events {
		if ev.Err == "" {
			faultAt = ev.At
			break
		}
	}
	faulted := telemetry.Audit(cfg.StartScheme, startProps.Robustness, series, faultAt, budget)
	faulted.Fit.Sanitize()

	arm.FinalScheme = stats.Shards[0].Scheme
	arm.FaultedAudited = faulted.Audited
	arm.FaultedGrowth = faulted.Fit.GrowthName
	arm.FaultedFit = faulted.Fit
	finalFit := finalVerdict.Fit
	finalFit.Sanitize()
	arm.FinalAudited = finalVerdict.Audited
	arm.FinalGrowth = finalFit.GrowthName
	arm.FinalFit = finalFit
	arm.Ops = t.ops
	arm.OpErrs = t.errs
	arm.OOMs = stats.Shards[0].OOMs
	arm.PeakRetired = stats.Shards[0].MaxRetired
	arm.P50 = t.lat.Percentile(0.50)
	arm.P99 = t.lat.Percentile(0.99)
	arm.Events = events
	arm.Series = series
	arm.Migrations = []adapt.Episode{}
	if ctl != nil {
		arm.Migrations = ctl.Episodes()
	}
	finalClass := finalVerdict.AuditedClass()
	finalConclusive := !finalVerdict.Inconclusive()
	if !finalConclusive {
		// A window with no real evidence (a migration landed just
		// before the deadline, or progress stalled entirely) must not
		// masquerade as a bounded verdict in the table or the headline.
		arm.FinalAudited = "inconclusive"
	}
	// Heap exhaustion outranks any fit: the backlog measurably ate the
	// heap. For an arm that never swapped incarnations the evidence
	// covers the whole run, so both windows collapse to not-robust.
	if stats.Shards[0].OOMs > 0 && stats.Shards[0].Epoch == 0 {
		arm.FaultedAudited = smr.NotRobust.String()
		arm.FaultedGrowth = telemetry.GrowthUnbounded.String()
		arm.FinalAudited = arm.FaultedAudited
		arm.FinalGrowth = arm.FaultedGrowth
		finalClass = smr.NotRobust
		finalConclusive = true
	}
	return arm, finalClass, finalConclusive, nil
}

// RunAdaptive runs the static control and the adaptive arm back to back
// on identical seeds and assembles the comparison.
func RunAdaptive(cfg AdaptiveConfig) (AdaptiveResult, error) {
	cfg.fill()
	// Validate the ladder once up front (both arms share it).
	for _, s := range cfg.Ladder {
		if _, err := all.Props(s); err != nil {
			return AdaptiveResult{}, err
		}
	}
	static, staticClass, staticOK, err := runAdaptiveArm(cfg, false)
	if err != nil {
		return AdaptiveResult{}, err
	}
	adaptiveArm, adaptiveClass, adaptiveOK, err := runAdaptiveArm(cfg, true)
	if err != nil {
		return AdaptiveResult{}, err
	}
	return AdaptiveResult{
		Static:   static,
		Adaptive: adaptiveArm,
		// The headline needs real evidence on both sides: a window too
		// thin to classify (migration just before the deadline, stalled
		// progress) must not default its way into an improvement claim.
		Improved: staticOK && adaptiveOK && adaptiveClass > staticClass,
	}, nil
}
