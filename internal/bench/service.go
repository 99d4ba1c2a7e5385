package bench

import (
	"errors"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ServiceConfig sizes the sharded-service experiment (EXP-SERVICE): M
// closed-loop clients batching operations into a store whose shards may
// run different reclamation schemes.
type ServiceConfig struct {
	// Shards is the shard count; 0 selects 4.
	Shards int
	// Schemes assigns reclamation schemes to shards, cycled when shorter
	// than Shards (so ["hp","ebr"] alternates). Empty selects ["ebr"].
	Schemes []string
	// Structure is the per-shard set structure; empty selects "hashmap".
	Structure string
	// WorkersPerShard sizes each shard's worker pool; 0 selects 1.
	WorkersPerShard int
	// Clients is the number of closed-loop client goroutines; 0 selects
	// 2 × Shards.
	Clients int
	// OpsPerClient is the measured operation count per client; 0 selects
	// 20000.
	OpsPerClient int
	// WarmupOpsPerClient is the untimed warmup: 0 selects
	// OpsPerClient/10, negative disables.
	WarmupOpsPerClient int
	// Batch is how many operations a client packs into one service
	// request; 0 selects 16.
	Batch int
	// KeyRange is the key universe; 0 selects 4096.
	KeyRange int
	// Mix is the base operation mix; zero selects MixBalanced.
	Mix Mix
	// Workload and Schedule name the key distribution and op-mix schedule
	// (workload registries); empty selects uniform/steady.
	Workload string
	Schedule string
	// Seed makes every client stream deterministic.
	Seed uint64
	// Duration, when positive, switches the run from op-boxed to
	// duration-boxed (the erachaos convention): clients batch until the
	// deadline, OpsPerClient and the warmup are ignored, and
	// per-operation errors are absorbed and counted instead of failing
	// the run — a live migration's swap window surfaces as a transient
	// ErrShardClosed, which is service behaviour, not harness failure.
	Duration time.Duration
	// Adapt, when non-nil, runs the adaptive-reclamation controller
	// (internal/adapt) over the store for the window: a telemetry
	// sampler feeds the online classifier, and shards whose scheme sits
	// on the controller's ladder are escalated/de-escalated live.
	// Requires Duration > 0 — an op-boxed run has no deadline for the
	// control loop to live inside.
	Adapt *adapt.Config
	// FanoutPct, when positive, adds a dedicated fan-out lane beside the
	// point-op fleet: FanoutPct percent of Clients (at least one
	// goroutine) drive cross-shard requests — multi-key gets, inserts,
	// deletes plus range scans and counts, workload.ReqMixFanout — through
	// the pipelined scatter-gather executor for the measured window.
	// Fan-out latency lands in its own histogram and reports as separate
	// p50/p99 rows beside the point-op request latency.
	FanoutPct int
	// FanoutKeys is the key count per multi-key fan-out request; 0
	// selects 8.
	FanoutKeys int
	// NoFuse disables every shard's batch-fused execution path, serving
	// each operation under its own SMR bracket — the per-op baseline arm
	// of the batch sweep (eraserve -nofuse).
	NoFuse bool
	// Retry, Hedge and Breaker route the fan-out lane through the
	// resilience client (internal/resil) instead of the bare executor:
	// typed-error-aware retries, p99-delay hedged legs, and per-shard
	// circuit breakers respectively. Any of the three switches the lane;
	// all require FanoutPct > 0.
	Retry   bool
	Hedge   bool
	Breaker bool
	// FanoutSLO, when positive with a resilient fan-out lane, runs a
	// per-shard tail-latency objective over the lane's settled leg
	// latencies. Breach/clear transitions land on the flight recorder,
	// and — in adaptive runs — are promoted into the telemetry verdict's
	// SLO dimension, so the controller can tell "robust but slow" from
	// "not robust".
	FanoutSLO time.Duration
	// ObsAddr, when non-empty, serves the live observability plane
	// (/metrics, /timeline, /debug/pprof/) on this address for the
	// duration of the run: the store's shards stamp the flight recorder,
	// and — with Adapt — the sampler, monitor and controller share its
	// run clock. The bound URL is reported in the result.
	ObsAddr string
}

func (cfg *ServiceConfig) fill() {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"ebr"}
	}
	if cfg.Structure == "" {
		cfg.Structure = "hashmap"
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 2 * cfg.Shards
	}
	if cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 20000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 4096
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
	if cfg.FanoutPct > 100 {
		cfg.FanoutPct = 100
	}
	if cfg.FanoutPct > 0 && cfg.FanoutKeys <= 0 {
		cfg.FanoutKeys = 8
	}
}

// ServiceShardRow is one shard's slice of the service measurement. Ops
// and MopsPerSec cover the timed phase only; the backlog and fault
// counters are cumulative over the shard's lifetime (prefill and warmup
// included — backlog carries across phases).
type ServiceShardRow struct {
	Shard int `json:"shard"`
	// Scheme is the shard's scheme *at measurement end* — after a live
	// migration it names the migrated-to scheme.
	Scheme         string  `json:"scheme"`
	Ops            uint64  `json:"ops"`
	MopsPerSec     float64 `json:"mops_per_sec"`
	Retired        uint64  `json:"retired"`
	MaxRetired     uint64  `json:"max_retired"`
	Faults         uint64  `json:"faults"`
	UnsafeAccesses uint64  `json:"unsafe_accesses"`
	Restarts       uint64  `json:"restarts"`
	// Migrations and Epoch record the shard's swap history (adaptive
	// runs; zero in static deployments).
	Migrations uint64 `json:"migrations,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// ServiceRow is the aggregate service measurement. P50/P99 are
// *service-request* latencies — one batched Do as seen by a client,
// queueing included — which is what a service's tail means.
type ServiceRow struct {
	Shards     int           `json:"shards"`
	Schemes    []string      `json:"schemes"`
	Structure  string        `json:"structure"`
	Clients    int           `json:"clients"`
	Batch      int           `json:"batch"`
	Workers    int           `json:"workers_per_shard"`
	Mix        Mix           `json:"mix"`
	Workload   string        `json:"workload"`
	Schedule   string        `json:"schedule"`
	KeyRange   int           `json:"key_range"`
	Ops        int           `json:"ops"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	MopsPerSec float64       `json:"mops_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`

	PeakRetired    uint64 `json:"peak_retired"`
	Faults         uint64 `json:"faults"`
	UnsafeAccesses uint64 `json:"unsafe_accesses"`
	Restarts       uint64 `json:"restarts"`
	// OpErrs counts tolerated per-operation errors (duration-boxed runs
	// only; op-boxed runs fail on the first one).
	OpErrs uint64 `json:"op_errs,omitempty"`
	// Migrations totals the live scheme migrations across shards.
	Migrations uint64 `json:"migrations,omitempty"`

	// Fan-out lane measurement (FanoutPct runs only): cross-shard
	// requests scattered through the pipelined executor, with their own
	// percentiles beside the point-op P50/P99. FanoutPartial counts
	// requests that completed with at least one failed leg; FanoutErrs
	// counts tolerated per-key errors inside otherwise-complete results.
	FanoutPct     int           `json:"fanout_pct,omitempty"`
	FanoutClients int           `json:"fanout_clients,omitempty"`
	FanoutReqs    uint64        `json:"fanout_reqs,omitempty"`
	FanoutP50     time.Duration `json:"fanout_p50_ns,omitempty"`
	FanoutP99     time.Duration `json:"fanout_p99_ns,omitempty"`
	FanoutPartial uint64        `json:"fanout_partial,omitempty"`
	FanoutErrs    uint64        `json:"fanout_errs,omitempty"`
	// FanoutSheds counts legs the lane saw rejected under saturation
	// (exec.ErrShed anywhere in a result's error chain). The resilience
	// counters below are live only when the lane runs through the resil
	// client (Retry/Hedge/Breaker): retries re-submitted, requests
	// recovered clean by a retry, hedges launched, and hedge races won
	// by the duplicate.
	FanoutSheds     uint64 `json:"fanout_sheds,omitempty"`
	FanoutRetries   uint64 `json:"fanout_retries,omitempty"`
	FanoutRecovered uint64 `json:"fanout_recovered,omitempty"`
	FanoutHedges    uint64 `json:"fanout_hedges,omitempty"`
	FanoutHedgeWins uint64 `json:"fanout_hedge_wins,omitempty"`
}

// ServiceResult pairs the aggregate row with the per-shard breakdown.
type ServiceResult struct {
	Aggregate ServiceRow        `json:"aggregate"`
	PerShard  []ServiceShardRow `json:"per_shard"`
	// Episodes is the adaptive controller's migration log (adaptive runs
	// only).
	Episodes []adapt.Episode `json:"episodes,omitempty"`
	// ObsURL is the live plane's bound URL (ObsAddr runs only).
	ObsURL string `json:"obs_url,omitempty"`
}

// fanoutOutcome is the fan-out lane's measurement: requests completed,
// partial completions, tolerated per-key errors and sheds, and the
// lane's own latency histogram.
type fanoutOutcome struct {
	clients int
	reqs    uint64
	partial uint64
	errs    uint64
	sheds   uint64
	lat     hist.Latency
	err     error
}

// runFanoutLane drives the dedicated fan-out clients through do until
// stop closes. ready is marked done once per client as it draws its
// first request — past drive's stop check, so every client serves at
// least one request however late the scheduler starts it. The point-op
// fleet runs concurrently on the same store, so the lane's tail
// includes cross-traffic queueing — which is what a service's fan-out
// tail means. Per-key errors and partial completions are absorbed and
// counted, never fatal: the lane measures the executor's service shape,
// and a shard mid-migration answering ErrShardClosed is service
// behaviour.
func runFanoutLane(do doer, cfg ServiceConfig, stop <-chan struct{}, ready *sync.WaitGroup) fanoutOutcome {
	n := fanoutClients(cfg)
	draw, err := reqStreams(workload.ReqConfig{
		Dist:      cfg.Workload,
		KeyRange:  cfg.KeyRange,
		Mix:       workload.ReqMixFanout,
		MultiSize: cfg.FanoutKeys,
		Seed:      cfg.Seed ^ 0xfa0fa0,
	}, n)
	if err != nil {
		for range n {
			ready.Done()
		}
		return fanoutOutcome{err: err}
	}
	outs := make([]fanoutOutcome, n)
	first := make([]bool, n)
	next := func(c int) workload.Req {
		if !first[c] {
			first[c] = true
			ready.Done()
		}
		return draw(c)
	}
	// The only error a lane client stops on is ErrClosed, which races the
	// stop signal at shutdown.
	lat, _ := drive(load{clients: n, stop: stop}, next, func(c int, req workload.Req) (time.Duration, error) {
		o := &outs[c]
		t0 := time.Now()
		res, err := do(req)
		if err != nil {
			// Anything but ErrClosed (a shed on a healthy store) only
			// costs the one request.
			if errors.Is(err, exec.ErrClosed) {
				return 0, err
			}
			if errors.Is(err, exec.ErrShed) {
				o.sheds++
			}
			o.errs++
			return 0, nil
		}
		d := time.Since(t0)
		o.reqs++
		if res.Partial() {
			o.partial++
		}
		for _, serr := range res.ShardErrs {
			if errors.Is(serr.Reason, exec.ErrShed) {
				o.sheds++
			}
		}
		for _, r := range res.Results {
			if r.Err != nil {
				o.errs++
			}
		}
		return d, nil
	})
	total := fanoutOutcome{clients: n, lat: lat}
	for _, o := range outs {
		total.reqs += o.reqs
		total.partial += o.partial
		total.errs += o.errs
		total.sheds += o.sheds
	}
	return total
}

// fanoutClients is the fan-out lane's client count: FanoutPct percent
// of Clients, at least one.
func fanoutClients(cfg ServiceConfig) int {
	return max(cfg.Clients*cfg.FanoutPct/100, 1)
}

// prefillHalf inserts ~KeyRange/2 random keys through the service, so
// contains() hits about half the time — shared by every store-driving
// experiment.
func prefillHalf(st *store.Store, keyRange, batchSize int, seed uint64) error {
	pre := workload.RNG(seed ^ 0xf00d)
	return insertKeys(st, keyRange/2, batchSize, func(int) int64 { return int64(pre.Next() % uint64(keyRange)) })
}

// insertKeys inserts key(i) for i in [0, n) through the service,
// batchSize operations per request.
func insertKeys(st *store.Store, n, batchSize int, key func(i int) int64) error {
	batch := make([]store.Op, 0, batchSize)
	for i := 0; i < n; i++ {
		batch = append(batch, store.Op{Kind: workload.OpInsert, Key: key(i)})
		if len(batch) == batchSize || i == n-1 {
			res, err := st.Do(batch)
			if err != nil {
				return err
			}
			for _, r := range res {
				if r.Err != nil {
					return r.Err
				}
			}
			batch = batch[:0]
		}
	}
	return nil
}

// storeProbe adapts a store's gauge tap into the telemetry sampler's
// probe shape: point i is shard i — the domain-order convention the
// Monitor and the adapt controller both rely on.
func storeProbe(st *store.Store) telemetry.Probe {
	return func() []telemetry.Point {
		gs := st.Gauges()
		pts := make([]telemetry.Point, len(gs))
		for i, g := range gs {
			pts[i] = telemetry.Point{
				Ops:          g.Ops,
				Retired:      g.Retired,
				MaxRetired:   g.MaxRetired,
				Active:       g.Active,
				MaxActive:    g.MaxActive,
				TravSteps:    g.TravSteps,
				TravRestarts: g.TravRestarts,
				GuardTrips:   g.GuardTrips,
			}
		}
		return pts
	}
}

// verdictMonitor builds the online verdict monitor over the store's
// resolved shard specs: domain i is shard i, with the shard's declared
// robustness class and worker/threshold budget. A non-nil recorder gets
// every verdict flip on its tape.
func verdictMonitor(st *store.Store, recorder *rec.Recorder) (*telemetry.Monitor, error) {
	domains := make([]telemetry.Domain, st.Shards())
	for s := range domains {
		spec, err := st.Spec(s)
		if err != nil {
			return nil, err
		}
		props, err := all.Props(spec.Scheme)
		if err != nil {
			return nil, err
		}
		domains[s] = telemetry.Domain{
			Scheme:   spec.Scheme,
			Declared: props.Robustness,
			Budget:   telemetry.Budget{Threads: spec.Workers, Threshold: spec.Threshold},
		}
	}
	mcfg := telemetry.MonitorConfig{}
	if recorder != nil {
		mcfg.OnFlip = obs.VerdictHook(recorder)
	}
	return telemetry.NewMonitor(mcfg, domains), nil
}

// attachAdapt wires the adaptive-reclamation loop onto a serving store:
// a sampler driving probe into the monitor's online classifier, and the
// controller deciding on it. The monitor is built separately
// (verdictMonitor) so a resilience client can sit between — its breaker
// feeds on the monitor's verdicts while the sampler's probe carries its
// counters. clock and recorder are optional (the observability plane's
// shared run clock and flight recorder — when given, all three loops
// stamp the same tape). Returns the started sampler and controller.
func attachAdapt(st *store.Store, acfg adapt.Config, interval time.Duration, mon *telemetry.Monitor, probe telemetry.Probe, clock *rec.Clock, recorder *rec.Recorder) (*telemetry.Sampler, *adapt.Controller, error) {
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: interval, Capacity: 4096, OnSample: mon.Observe,
			Clock: clock, Recorder: recorder},
		probe)
	acfg.Clock = clock
	acfg.Recorder = recorder
	ctl, err := adapt.New(acfg, st, mon)
	if err != nil {
		return nil, nil, err
	}
	sampler.Start()
	ctl.Start()
	return sampler, ctl, nil
}

// sampleEvery derives a telemetry tick from a traffic window: ~200
// samples per run, clamped to [200µs, 5ms].
func sampleEvery(d time.Duration) time.Duration {
	return clamp(d/200, 200*time.Microsecond, 5*time.Millisecond)
}

func clamp(d, lo, hi time.Duration) time.Duration { return min(max(d, lo), hi) }

// RunService builds the sharded store, prefills it to half the key range,
// runs the measured closed-loop client phase — op-boxed with warmup by
// default, duration-boxed (optionally with the adaptive-reclamation
// controller live) when Duration is set — then drains the store and
// assembles the rows.
func RunService(cfg ServiceConfig) (ServiceResult, error) {
	cfg.fill()
	if cfg.Adapt != nil && cfg.Duration <= 0 {
		return ServiceResult{}, errors.New("bench: adaptive service runs need a Duration window")
	}
	specs := make([]store.ShardSpec, cfg.Shards)
	for i := range specs {
		specs[i] = store.ShardSpec{
			Scheme:    cfg.Schemes[i%len(cfg.Schemes)],
			Structure: cfg.Structure,
			Workers:   cfg.WorkersPerShard,
			NoFuse:    cfg.NoFuse,
		}
	}
	// The observability plane is opt-in: with ObsAddr set, the shards
	// stamp a flight recorder and the plane serves live throughout.
	var (
		clock    *rec.Clock
		recorder *rec.Recorder
		srv      *obs.Server
	)
	if cfg.ObsAddr != "" {
		clock = rec.NewClock()
		recorder = rec.NewRecorder(clock, 0)
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: cfg.KeyRange, Recorder: recorder})
	if err != nil {
		return ServiceResult{}, err
	}
	defer st.Close()
	defer func() { _ = srv.Close() }()
	serveObs := func(reg *obs.Registry) error {
		if cfg.ObsAddr == "" {
			return nil
		}
		srv, err = obs.Serve(cfg.ObsAddr, reg)
		return err
	}
	src, err := workload.New(workload.Config{
		Dist:     cfg.Workload,
		Schedule: cfg.Schedule,
		KeyRange: cfg.KeyRange,
		Mix:      cfg.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return ServiceResult{}, err
	}

	if err := prefillHalf(st, cfg.KeyRange, cfg.Batch, cfg.Seed); err != nil {
		return ServiceResult{}, err
	}

	var (
		t       storeTally
		elapsed time.Duration
		before  store.Stats
		ctl     *adapt.Controller
	)
	// The fan-out lane brackets the measured phase: started right before
	// the clock, stopped right after, so its histogram covers the same
	// window as the point-op percentiles it sits beside in the table.
	var (
		fanClose func() error
		fanResil *resil.Client
		fanSLO   *obs.SLOSet
		fanDo    doer
		fanStop  chan struct{}
		fanDone  chan fanoutOutcome
		fanOut   fanoutOutcome
	)
	// buildFanout constructs the lane's submission path before the
	// observability plane binds, so a resilience client's counters and
	// breakers are on /metrics from the first scrape. mon may be nil
	// (non-adaptive runs): the breaker then trips on its failure EWMA
	// alone, without the verdict feed.
	buildFanout := func(mon *telemetry.Monitor) error {
		if cfg.FanoutPct <= 0 {
			return nil
		}
		// The serving lane disables the leg budget: the deployment is
		// healthy, so there is no fault to bound and no reason to tax
		// every leg with a watchdog (the chaos campaigns pay for the
		// budget where it earns its keep).
		ecfg := exec.Config{LegTimeout: -1, Clock: clock, Recorder: recorder}
		var rcfg *resil.Config
		if cfg.Retry || cfg.Hedge || cfg.Breaker {
			rcfg = &resil.Config{
				Hedge:    cfg.Hedge,
				Breaker:  cfg.Breaker,
				Verdicts: mon,
				Seed:     cfg.Seed ^ 0x5e111e5,
				Clock:    clock,
				Recorder: recorder,
			}
			if !cfg.Retry {
				rcfg.MaxAttempts = 1
				rcfg.RetryBudget = -1
			}
			if fanSLO != nil {
				rcfg.OnLegLatency = fanSLO.Observe
			}
		}
		var err error
		fanDo, fanResil, fanClose, err = newDoer(st, ecfg, rcfg)
		return err
	}
	startFanout := func() {
		if fanDo == nil {
			return
		}
		fanStop = make(chan struct{})
		fanDone = make(chan fanoutOutcome, 1)
		// Wait until every lane client is past its first stop check, so
		// a short measured phase cannot end before the lane has served.
		var ready sync.WaitGroup
		ready.Add(fanoutClients(cfg))
		go func() { fanDone <- runFanoutLane(fanDo, cfg, fanStop, &ready) }()
		ready.Wait()
	}
	stopFanout := func() error {
		if fanDo == nil {
			return nil
		}
		if fanStop != nil {
			close(fanStop)
			fanOut = <-fanDone
		}
		err := fanClose()
		fanDo = nil
		if fanOut.err != nil {
			return fanOut.err
		}
		return err
	}
	// Error returns between start and stop must still retire the lane —
	// the deferred stop is a no-op on the paths that stopped explicitly.
	defer func() { _ = stopFanout() }()
	if cfg.Duration > 0 {
		// Duration-boxed: no warmup (the window owns its ramp), errors
		// tolerated, optional adaptive controller live over the store.
		var sampler *telemetry.Sampler
		var mon *telemetry.Monitor
		if cfg.Adapt != nil {
			if mon, err = verdictMonitor(st, recorder); err != nil {
				return ServiceResult{}, err
			}
		}
		// The per-shard SLO objective rides the resilient lane's settled
		// leg latencies; with a monitor live, its transitions flip the
		// verdict plane's SLO dimension ("robust but slow").
		if cfg.FanoutSLO > 0 && cfg.FanoutPct > 0 && (cfg.Retry || cfg.Hedge || cfg.Breaker) {
			var hook func(shard int, breached bool)
			if mon != nil {
				hook = mon.SetSLO
			}
			fanSLO = obs.NewSLOSet(cfg.Shards, cfg.FanoutSLO, 0, clock, recorder, hook)
		}
		if err := buildFanout(mon); err != nil {
			return ServiceResult{}, err
		}
		if cfg.Adapt != nil {
			// The sampler's probe carries the lane's resilience counters
			// beside the store gauges, so the timeline join sees retries,
			// hedges and breaker positions as first-class points.
			probe := storeProbe(st)
			if fanResil != nil {
				probe = fanResil.AugmentProbe(probe)
			}
			sampler, ctl, err = attachAdapt(st, *cfg.Adapt, sampleEvery(cfg.Duration), mon, probe, clock, recorder)
			if err != nil {
				return ServiceResult{}, err
			}
		}
		if err := serveObs(&obs.Registry{Store: st, Sampler: sampler, Monitor: mon, Recorder: recorder, Resil: fanResil}); err != nil {
			return ServiceResult{}, err
		}
		fanSLO.Start(sampleEvery(cfg.Duration))
		startFanout()
		before = st.Stats()
		start := time.Now()
		t, err = storeClients{st: st, src: src, clients: cfg.Clients, batch: cfg.Batch, deadline: start.Add(cfg.Duration)}.run()
		elapsed = time.Since(start)
		if serr := stopFanout(); err == nil {
			err = serr
		}
		fanSLO.Stop()
		if ctl != nil {
			ctl.Stop()
			sampler.Stop()
		}
		if err != nil {
			return ServiceResult{}, err
		}
	} else {
		if err := buildFanout(nil); err != nil {
			return ServiceResult{}, err
		}
		if err := serveObs(&obs.Registry{Store: st, Recorder: recorder, Resil: fanResil}); err != nil {
			return ServiceResult{}, err
		}
		warmup := cfg.WarmupOpsPerClient
		switch {
		case warmup < 0:
			warmup = 0
		case warmup == 0:
			warmup = cfg.OpsPerClient / 10
		}
		clients := storeClients{st: st, src: src.Steady(cfg.Seed ^ 0xbadcafe), clients: cfg.Clients, batch: cfg.Batch, ops: warmup, strict: true}
		if warmup > 0 {
			if _, err := clients.run(); err != nil {
				return ServiceResult{}, err
			}
		}
		startFanout()
		before = st.Stats()
		clients.src, clients.ops = src, cfg.OpsPerClient
		start := time.Now()
		t, err = clients.run()
		elapsed = time.Since(start)
		if serr := stopFanout(); err == nil {
			err = serr
		}
		if err != nil {
			return ServiceResult{}, err
		}
	}

	// Drain before the final read so Retired reflects the settled
	// backlog, then build rows from the post-close counters.
	if err := st.Close(); err != nil {
		return ServiceResult{}, err
	}
	after := st.Stats()

	srcCfg := src.Config()
	agg := ServiceRow{
		Shards:     cfg.Shards,
		Schemes:    cfg.Schemes,
		Structure:  cfg.Structure,
		Clients:    cfg.Clients,
		Batch:      cfg.Batch,
		Workers:    cfg.WorkersPerShard,
		Mix:        srcCfg.Mix,
		Workload:   srcCfg.Dist,
		Schedule:   srcCfg.Schedule,
		KeyRange:   cfg.KeyRange,
		Ops:        int(t.ops),
		Elapsed:    elapsed,
		MopsPerSec: float64(t.ops) / elapsed.Seconds() / 1e6,
		P50:        t.lat.Percentile(0.50),
		P99:        t.lat.Percentile(0.99),

		PeakRetired:    after.MaxRetired,
		Faults:         after.Faults,
		UnsafeAccesses: after.UnsafeAccesses,
		Restarts:       after.Restarts,
		OpErrs:         t.errs,
		Migrations:     after.Migrations,
	}
	if cfg.FanoutPct > 0 {
		agg.FanoutPct = cfg.FanoutPct
		agg.FanoutClients = fanOut.clients
		agg.FanoutReqs = fanOut.reqs
		agg.FanoutP50 = fanOut.lat.Percentile(0.50)
		agg.FanoutP99 = fanOut.lat.Percentile(0.99)
		agg.FanoutPartial = fanOut.partial
		agg.FanoutErrs = fanOut.errs
		agg.FanoutSheds = fanOut.sheds
		if fanResil != nil {
			rs := fanResil.Stats()
			agg.FanoutRetries = rs.Retries
			agg.FanoutRecovered = rs.Recovered
			agg.FanoutHedges = rs.Hedges
			agg.FanoutHedgeWins = rs.HedgeWins
		}
	}
	rows := make([]ServiceShardRow, cfg.Shards)
	for i, sh := range after.Shards {
		measured := sh.Ops
		// A migrated shard restarted its counters mid-window; its
		// current count *is* the post-swap measurement, while an
		// unswapped shard subtracts the pre-window baseline as before.
		if sh.Epoch == before.Shards[i].Epoch {
			measured = sh.Ops - before.Shards[i].Ops
		}
		rows[i] = ServiceShardRow{
			Shard:          sh.Shard,
			Scheme:         sh.Scheme,
			Ops:            measured,
			MopsPerSec:     float64(measured) / elapsed.Seconds() / 1e6,
			Retired:        sh.Retired,
			MaxRetired:     sh.MaxRetired,
			Faults:         sh.Faults,
			UnsafeAccesses: sh.UnsafeAccesses,
			Restarts:       sh.Restarts,
			Migrations:     sh.Migrations,
			Epoch:          sh.Epoch,
		}
	}
	res := ServiceResult{Aggregate: agg, PerShard: rows}
	if ctl != nil {
		res.Episodes = ctl.Episodes()
	}
	if srv != nil {
		res.ObsURL = srv.URL
	}
	return res, nil
}
