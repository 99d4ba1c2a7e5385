package bench

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ChaosConfig sizes the chaos experiment (EXP-CHAOS): a sharded store
// with one shard per scheme under audit, closed-loop client traffic for a
// fixed wall-clock window, scheduled fault injection, and a telemetry
// sampler whose series are fitted into per-scheme robustness verdicts.
//
// The run is duration-boxed, not op-boxed: a client whose batch lands on
// a stalled worker blocks until the fault heals (that is the fault
// working), so "run until every client did N ops" could never terminate.
type ChaosConfig struct {
	// Schemes get one shard each, in order; the default trio spans the
	// three robustness classes (ebr not-robust, ibr weakly-robust, hp
	// robust).
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap"
	// (HP-compatible, so the widest scheme set applies).
	Structure string
	// WorkersPerShard sizes each shard's pool; 0 selects one more than
	// the number of stall-family faults (min 2) — every parking fault
	// claims a worker and the audit needs a survivor to keep the shard's
	// churn (and telemetry progress) alive.
	WorkersPerShard int
	// Clients is the closed-loop client count; 0 selects 2 × shards.
	Clients int
	// Batch is operations per service request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 2048.
	KeyRange int
	// Threshold is every shard's retire-scan threshold; 0 selects 16.
	// Fixing it (rather than per-scheme defaults) fixes the audit's
	// bounded-backlog budget.
	Threshold int
	// SlotsPerShard sizes each shard heap; 0 selects a budget generous
	// enough that only a genuinely unbounded backlog can exhaust it —
	// and if one does, the OOM is reported as audit evidence, not a
	// crash.
	SlotsPerShard int
	// Duration is the traffic window; 0 selects 400ms.
	Duration time.Duration
	// FaultAfter is the injection delay from traffic start; 0 selects
	// Duration/8 (early, so most of the window is faulted — the growth
	// fit reads the faulted tail).
	FaultAfter time.Duration
	// SampleInterval is the telemetry tick; 0 derives Duration/200
	// clamped to [200µs, 5ms].
	SampleInterval time.Duration
	// Faults names the faults injected (chaos registry names); each is
	// applied to every shard. Empty selects ["stall"] — the
	// reclamation-critical stall that separates the robustness classes.
	Faults []string
	// Mix, Workload, Schedule name the traffic shape (workload
	// registries); zero values select balanced/uniform/steady.
	Mix      Mix
	Workload string
	Schedule string
	// Seed makes client streams deterministic.
	Seed uint64
	// ObsAddr, when non-empty, serves the live observability plane
	// (/metrics, /timeline, /debug/pprof/) on this address for the
	// duration of the run; shard scans, guard trips, and every fault
	// fire/heal land on a shared flight recorder the /timeline endpoint
	// exposes. The bound URL is reported in the result.
	ObsAddr string
}

// survivorWorkers sizes a faulted shard's pool one survivor above its
// stall-family fault count (min 2): every parking fault claims a worker,
// and an audit needs a live worker to keep the shard's churn (and
// telemetry progress) going.
func survivorWorkers(faults []string) int {
	parks := 0
	for _, f := range faults {
		if chaos.ParksWorker(f) {
			parks++
		}
	}
	return max(parks+1, 2)
}

func (cfg *ChaosConfig) fill() {
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr", "ibr", "hp"}
	}
	if cfg.Structure == "" {
		cfg.Structure = "hashmap"
	}
	if len(cfg.Faults) == 0 {
		cfg.Faults = []string{"stall"}
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = survivorWorkers(cfg.Faults)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * len(cfg.Schemes)
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
		cfg.Duration = 400 * time.Millisecond
	}
	if cfg.FaultAfter <= 0 {
		cfg.FaultAfter = cfg.Duration / 8
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = sampleEvery(cfg.Duration)
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
}

// ChaosRow is one shard's audit: the scheme's declared robustness class
// against the class its telemetry evidences.
type ChaosRow struct {
	Shard    int    `json:"shard"`
	Scheme   string `json:"scheme"`
	Declared string `json:"declared"`
	Audited  string `json:"audited"`
	// Growth is the fitted backlog shape (bounded / linear-in-threads /
	// unbounded).
	Growth string `json:"growth"`
	// Slope is backlog growth per shard operation over the faulted
	// window; Plateau the window's mean backlog.
	Slope   float64 `json:"slope"`
	Plateau float64 `json:"plateau"`
	// PeakRetired is the shard's whole-run backlog watermark.
	PeakRetired uint64 `json:"peak_retired"`
	// Ops is the shard's total served operations; OOMs its failed
	// allocations (nonzero only when the backlog ate the heap).
	Ops  uint64 `json:"ops"`
	OOMs uint64 `json:"ooms"`
	// Outcome relates audited to declared: confirmed, stronger,
	// VIOLATED, or inconclusive.
	Outcome string `json:"outcome"`
	// Consistent is false exactly when Outcome is VIOLATED.
	Consistent bool `json:"consistent"`
	// Series is the shard's sampled backlog trajectory (the evidence).
	Series []telemetry.Point `json:"series,omitempty"`
}

// ChaosAggregate is the run's service-level summary: what the clients
// experienced while the faults were live.
type ChaosAggregate struct {
	Shards   int           `json:"shards"`
	Schemes  []string      `json:"schemes"`
	Faults   []string      `json:"faults"`
	Clients  int           `json:"clients"`
	Batch    int           `json:"batch"`
	Workers  int           `json:"workers_per_shard"`
	KeyRange int           `json:"key_range"`
	Mix      Mix           `json:"mix"`
	Workload string        `json:"workload"`
	Schedule string        `json:"schedule"`
	Seed     uint64        `json:"seed"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Ops      uint64        `json:"ops"`
	// OpErrs counts per-operation errors clients absorbed (shard closed
	// during churn faults, OOM on an exhausted shard, ...).
	OpErrs uint64 `json:"op_errs"`
	// P50/P99 are service-request latencies with the faults live.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// ChaosResult is the chaos experiment's outcome: one audited row per
// scheme shard, the fault episode log, and the client-side aggregate.
type ChaosResult struct {
	Rows   []ChaosRow     `json:"rows"`
	Events []chaos.Event  `json:"events"`
	Agg    ChaosAggregate `json:"aggregate"`
	// Consistent reports that no audit contradicted a declared class.
	Consistent bool `json:"consistent"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
}

// Gates returns EXP-CHAOS's acceptance gate: no audit contradicted a
// declared robustness class.
func (r ChaosResult) Gates() map[string]bool {
	return map[string]bool{"verdicts_consistent": r.Consistent}
}

// RunChaos builds a gated store with one shard per scheme, runs
// closed-loop traffic for the configured window while the chaos engine
// injects the configured faults into every shard, samples per-shard
// backlog telemetry throughout, and audits each scheme's declared
// robustness class against the fitted growth of its faulted window.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.fill()
	nshards := len(cfg.Schemes)
	gates := make([]*sched.Breakpoints, nshards)
	specs := make([]store.ShardSpec, nshards)
	for i, scheme := range cfg.Schemes {
		gates[i] = sched.NewBreakpoints()
		specs[i] = store.ShardSpec{
			Scheme:    scheme,
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			Threshold: cfg.Threshold,
			Slots:     cfg.SlotsPerShard,
			Gate:      gates[i],
		}
	}
	// With ObsAddr set, the plane serves live throughout: shard scans and
	// guard trips from the store, fire/heal events from the engine, all
	// on one shared run clock.
	var (
		clock    *rec.Clock
		recorder *rec.Recorder
	)
	if cfg.ObsAddr != "" {
		clock = rec.NewClock()
		recorder = rec.NewRecorder(clock, 0)
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: cfg.KeyRange, Recorder: recorder})
	if err != nil {
		return ChaosResult{}, err
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
		return ChaosResult{}, err
	}

	// Prefill to half occupancy through the service, like any traffic.
	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		return ChaosResult{}, err
	}

	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: cfg.SampleInterval, Capacity: 4096,
			Clock: clock, Recorder: recorder},
		storeProbe(st))

	target := &chaos.Target{Store: st, Gates: gates, KeyRange: cfg.KeyRange}
	engine := chaos.NewEngine(target)
	engine.SetObs(clock, recorder)

	var obsURL string
	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, &obs.Registry{Store: st, Sampler: sampler, Recorder: recorder})
		if err != nil {
			return ChaosResult{}, err
		}
		defer srv.Close()
		obsURL = srv.URL
	}
	for _, name := range cfg.Faults {
		for s := 0; s < nshards; s++ {
			if err := engine.Add(name, chaos.Params{Shard: s}, chaos.OneShot(cfg.FaultAfter)); err != nil {
				return ChaosResult{}, err
			}
		}
	}

	sampler.Start()
	engine.Start()
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	// Heal at the deadline from a watchdog: clients blocked on a stalled
	// worker only come back once the faults do, so the engine must stop
	// first, independent of client progress. The evidence — shard stats
	// and the telemetry series — is snapshotted at the deadline too,
	// *before* the heals run: a churn heal reopens its shard with zeroed
	// counters, and a stall heal lets the resumed worker collapse the
	// backlog, either of which would contaminate the faulted window if
	// read afterwards.
	var stats store.Stats
	series := make([][]telemetry.Point, nshards)
	healed := make(chan struct{})
	go func() {
		defer close(healed)
		time.Sleep(time.Until(deadline))
		stats = st.Stats()
		for s := 0; s < nshards; s++ {
			series[s] = sampler.Series(s).Points()
		}
		engine.Stop()
	}()
	t, err := storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch, deadline: deadline}.run()
	<-healed
	elapsed := time.Since(start)
	sampler.Stop()
	if err != nil {
		return ChaosResult{}, err
	}
	if err := st.Close(); err != nil {
		return ChaosResult{}, err
	}

	events := engine.Events()
	res := ChaosResult{
		Events:     events,
		Consistent: true,
		ObsURL:     obsURL,
		Agg: ChaosAggregate{
			Shards:   nshards,
			Schemes:  cfg.Schemes,
			Faults:   cfg.Faults,
			Clients:  cfg.Clients,
			Batch:    cfg.Batch,
			Workers:  cfg.WorkersPerShard,
			KeyRange: cfg.KeyRange,
			Mix:      src.Config().Mix,
			Workload: src.Config().Dist,
			Schedule: src.Config().Schedule,
			Seed:     cfg.Seed,
			Elapsed:  elapsed,
			Ops:      t.ops,
			OpErrs:   t.errs,
			P50:      t.lat.Percentile(0.50),
			P99:      t.lat.Percentile(0.99),
		},
	}
	budget := telemetry.Budget{Threads: cfg.WorkersPerShard, Threshold: cfg.Threshold}
	for s, scheme := range cfg.Schemes {
		props, err := all.Props(scheme)
		if err != nil {
			return ChaosResult{}, err
		}
		// Fit only the faulted window: from the first episode injected
		// into this shard onward.
		var from time.Duration
		for _, ev := range events {
			if ev.Shard == s && ev.Err == "" {
				from = ev.At
				break
			}
		}
		points := series[s]
		v := telemetry.Audit(scheme, props.Robustness, points, from, budget)
		v.Fit.Sanitize()
		row := ChaosRow{
			Shard:       s,
			Scheme:      scheme,
			Declared:    v.Declared,
			Audited:     v.Audited,
			Growth:      v.Fit.GrowthName,
			Slope:       v.Fit.Slope,
			Plateau:     v.Fit.Plateau,
			PeakRetired: stats.Shards[s].MaxRetired,
			Ops:         stats.Shards[s].Ops,
			OOMs:        stats.Shards[s].OOMs,
			Outcome:     v.Outcome,
			Consistent:  v.Consistent(),
			Series:      points,
		}
		// Heap exhaustion is stronger evidence than any fit: the backlog
		// literally ran the shard out of memory.
		if row.OOMs > 0 {
			row.Audited = "not-robust"
			row.Growth = "unbounded"
			if row.Declared == "not-robust" {
				row.Outcome = "confirmed"
				row.Consistent = true
			} else {
				row.Outcome = "VIOLATED"
				row.Consistent = false
			}
		}
		if !row.Consistent {
			res.Consistent = false
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
