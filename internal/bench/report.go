package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/adapt"
)

// WriteThroughputTable renders throughput rows.
func WriteThroughputTable(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%-11s %-16s %7s %9s %-18s %9s %10s %10s %10s %13s %9s\n",
		"scheme", "structure", "threads", "mix", "workload", "keyrange", "Mops/s", "p50", "p99", "peak-retired", "restarts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-16s %7d %9s %-18s %9d %10.3f %10s %10s %13d %9d\n",
			r.Scheme, r.Structure, r.Threads, r.Mix, r.Workload+"/"+r.Schedule,
			r.KeyRange, r.MopsPerSec, fmtLatency(r.P50), fmtLatency(r.P99), r.PeakRetired, r.Restarts)
	}
}

func fmtLatency(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Nanosecond).String()
}

// WriteSpaceTable renders the space experiment.
func WriteSpaceTable(w io.Writer, rows []SpaceRow) {
	fmt.Fprintf(w, "%-11s %8s %13s %11s %9s %s\n", "scheme", "K", "peak-retired", "max-active", "per-churn", "safe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %8d %13d %11d %9.3f %v\n",
			r.Scheme, r.K, r.PeakRetired, r.MaxActive, r.PerChurn, r.Safe)
	}
}

// WriteStallSeries renders backlog-over-time curves for several schemes.
func WriteStallSeries(w io.Writer, series map[string][]StallSample) {
	schemes := make([]string, 0, len(series))
	for s := range series {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	fmt.Fprintf(w, "%-8s", "step")
	for _, s := range schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	if len(schemes) == 0 {
		return
	}
	for i := range series[schemes[0]] {
		fmt.Fprintf(w, "%-8d", series[schemes[0]][i].Step)
		for _, s := range schemes {
			fmt.Fprintf(w, " %12d", series[s][i].Retired)
		}
		fmt.Fprintln(w)
	}
}

// WriteScaleTable renders the scale experiment.
func WriteScaleTable(w io.Writer, rows []ScaleRow) {
	fmt.Fprintf(w, "%-11s %8s %10s %9s\n", "scheme", "size", "backlog", "per-size")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %8d %10d %9.3f\n", r.Scheme, r.Size, r.Backlog, r.PerSize)
	}
}

// WriteServiceTable renders the sharded-service measurement: the
// per-shard breakdown (scheme = the shard's *current* scheme), the
// adaptive migration log when there is one, then the aggregate lines.
func WriteServiceTable(w io.Writer, res ServiceResult) {
	fmt.Fprintf(w, "%-6s %-11s %12s %10s %10s %12s %8s %8s %9s %6s\n",
		"shard", "scheme", "ops", "Mops/s", "retired", "peak-retired", "faults", "unsafe", "restarts", "moves")
	for _, r := range res.PerShard {
		fmt.Fprintf(w, "%-6d %-11s %12d %10.3f %10d %12d %8d %8d %9d %6d\n",
			r.Shard, r.Scheme, r.Ops, r.MopsPerSec, r.Retired, r.MaxRetired,
			r.Faults, r.UnsafeAccesses, r.Restarts, r.Migrations)
	}
	writeEpisodes(w, res.Episodes)
	a := res.Aggregate
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients × batch %d, %s %s/%s mix %s\n",
		a.Shards, a.Workers, a.Clients, a.Batch, a.Structure, a.Workload, a.Schedule, a.Mix)
	fmt.Fprintf(w, "           %d ops in %s = %.3f Mops/s, request p50 %s p99 %s, peak-retired %d, faults %d, restarts %d\n",
		a.Ops, a.Elapsed.Round(time.Millisecond), a.MopsPerSec,
		fmtLatency(a.P50), fmtLatency(a.P99), a.PeakRetired, a.Faults, a.Restarts)
	if a.OpErrs > 0 || a.Migrations > 0 {
		fmt.Fprintf(w, "           op-errors %d, migrations %d\n", a.OpErrs, a.Migrations)
	}
	if a.FanoutPct > 0 {
		fmt.Fprintf(w, "fan-out:   %d clients (%d%% of fleet) via pipelined executor: %d requests, p50 %s p99 %s\n",
			a.FanoutClients, a.FanoutPct, a.FanoutReqs, fmtLatency(a.FanoutP50), fmtLatency(a.FanoutP99))
		if a.FanoutPartial > 0 || a.FanoutErrs > 0 || a.FanoutSheds > 0 {
			fmt.Fprintf(w, "           fan-out partials %d, fan-out op-errors %d, fan-out sheds %d\n",
				a.FanoutPartial, a.FanoutErrs, a.FanoutSheds)
		}
		if a.FanoutRetries > 0 || a.FanoutHedges > 0 || a.FanoutRecovered > 0 {
			fmt.Fprintf(w, "resil:     %d retries (%d requests recovered), %d hedges (%d races won)\n",
				a.FanoutRetries, a.FanoutRecovered, a.FanoutHedges, a.FanoutHedgeWins)
		}
	}
}

// writeEpisodes renders a migration episode log, one line per decision,
// shared by the service and adaptive tables.
func writeEpisodes(w io.Writer, eps []adapt.Episode) {
	for _, ep := range eps {
		line := fmt.Sprintf("migration: shard %d %s → %s at %s (%s)",
			ep.Shard, ep.From, ep.To, ep.At.Round(time.Millisecond), ep.Reason)
		if ep.Err != "" {
			line += " FAILED: " + ep.Err
		}
		fmt.Fprintln(w, line)
	}
}

// WriteAdaptiveTable renders the adaptive experiment: one line per arm,
// the adaptive arm's migration episode log, its fault episodes, then the
// headline.
func WriteAdaptiveTable(w io.Writer, cfg AdaptiveConfig, res AdaptiveResult) {
	cfg.fill()
	fmt.Fprintf(w, "%-9s %-7s %-7s %5s %-18s %-18s %13s %10s %8s %6s %10s\n",
		"arm", "start", "final", "moves", "faulted-audited", "final-audited",
		"peak-retired", "ops", "op-errs", "ooms", "p99")
	for _, arm := range []AdaptiveArm{res.Static, res.Adaptive} {
		fmt.Fprintf(w, "%-9s %-7s %-7s %5d %-18s %-18s %13d %10d %8d %6d %10s\n",
			arm.Arm, arm.StartScheme, arm.FinalScheme, len(arm.Migrations),
			arm.FaultedAudited+" ("+arm.FaultedGrowth+")", arm.FinalAudited+" ("+arm.FinalGrowth+")",
			arm.PeakRetired, arm.Ops, arm.OpErrs, arm.OOMs, fmtLatency(arm.P99))
	}
	writeEpisodes(w, res.Adaptive.Migrations)
	for _, ev := range res.Adaptive.Events {
		fmt.Fprintf(w, "fault: %-16s shard %d at %s\n", ev.Fault, ev.Shard, ev.At.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "aggregate: ladder %v from %s, faults %v, %s window, %d clients × batch %d, %s/%s mix %s seed %d\n",
		cfg.Ladder, cfg.StartScheme, cfg.Faults, cfg.Duration, cfg.Clients, cfg.Batch,
		cfg.Workload, cfg.Schedule, cfg.Mix, cfg.Seed)
	fmt.Fprintf(w, "           adaptive improved on static: %v\n", res.Improved)
}

// WriteTraverseTable renders EXP-TRAVERSE: the storm arms, the snapshot
// arms, then the headlines.
func WriteTraverseTable(w io.Writer, cfg TraverseConfig, res TraverseResult) {
	cfg.fill()
	fmt.Fprintf(w, "%-13s %10s %10s %10s %10s %11s %8s %13s %11s %13s\n",
		"storm-arm", "ops", "Mops/s", "p50", "p99", "restarts/kop", "head-rs", "max-op-steps", "guard-trips", "peak-retired")
	for _, a := range res.Storm {
		fmt.Fprintf(w, "%-13s %10d %10.3f %10s %10s %11.3f %8d %13d %11d %13d\n",
			a.Mode, a.Ops, a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
			a.RestartsPerKOp, a.TravHeadRestarts, a.MaxOpSteps, a.GuardTrips, a.PeakRetired)
	}
	fmt.Fprintf(w, "%-13s %14s %14s %14s\n", "snapshot-arm", "probes", "keys", "swap-window")
	for _, a := range res.Snap {
		fmt.Fprintf(w, "%-13s %14d %14d %14s\n",
			a.Mode, a.SnapshotProbes, a.SnapshotKeys, a.SwapWindow.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "aggregate: %d workers, %d clients, %s window, churn keyrange %d, snapshot %d universe / %d live, seed %d\n",
		cfg.Workers, cfg.Clients, cfg.Duration, cfg.ChurnKeyRange, cfg.SnapKeyRange, cfg.SnapLiveKeys, cfg.Seed)
	fmt.Fprintf(w, "           swap window improved %.1fx, probes bounded: %v, guard clean: %v\n",
		res.SwapImprovement, res.ProbesBounded, res.GuardClean)
}

// WriteBatchTable renders EXP-BATCH: the throughput pairs, the
// allocation section, the parked-worker backlog pairs, then the
// headlines.
func WriteBatchTable(w io.Writer, cfg BatchConfig, res BatchResult) {
	cfg.fill()
	fmt.Fprintf(w, "%-7s %6s %-7s %10s %10s %10s %10s %9s %11s %11s %7s\n",
		"scheme", "batch", "arm", "ops", "Mops/s", "p50", "p99", "fused", "rebrackets", "sorts", "ratio")
	for _, p := range res.Pairs {
		for _, a := range []BatchArm{p.Fused, p.Serial} {
			ratio := ""
			if a.Mode == "fused" {
				ratio = fmt.Sprintf("%.2fx", p.Ratio)
			}
			fmt.Fprintf(w, "%-7s %6d %-7s %10d %10.3f %10s %10s %9d %11d %11d %7s\n",
				p.Scheme, p.Batch, a.Mode, a.Ops, a.MopsPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
				a.FusedBatches, a.Rebrackets, a.BatchSorts, ratio)
		}
	}
	fmt.Fprintf(w, "allocs: %d DoInto calls × batch %d: %.2f allocs/call, %.1f B/call (zero-alloc: %v)\n",
		res.Allocs.Rounds, res.Allocs.Batch, res.Allocs.AllocsPerOp, res.Allocs.BytesPerOp, res.Allocs.ZeroAlloc)
	fmt.Fprintf(w, "%-7s %-22s %-22s %8s\n", "scheme", "fused peak-retired/ops", "per-op peak-retired/ops", "bounded")
	for _, p := range res.Backlog {
		fmt.Fprintf(w, "%-7s %-22s %-22s %8v\n", p.Scheme,
			fmt.Sprintf("%d / %d", p.Fused.PeakRetired, p.Fused.Ops),
			fmt.Sprintf("%d / %d", p.Serial.PeakRetired, p.Serial.Ops),
			p.Bounded)
	}
	fmt.Fprintf(w, "aggregate: %d workers, %d clients, %s window, keyrange %d, %d ops per parked-worker arm, seed %d\n",
		cfg.Workers, cfg.Clients, cfg.Duration, cfg.KeyRange, cfg.BacklogOps, cfg.Seed)
	fmt.Fprintf(w, "           best ratio %.2fx (fused beats serial: %v), zero-alloc: %v, backlog bounded: %v\n",
		res.BestRatio, res.FusedBeatsSerial, res.ZeroAlloc, res.BacklogBounded)
}

// WriteChaosTable renders the chaos audit: one verdict line per scheme
// shard, the fault episode log, then the client-side aggregate.
func WriteChaosTable(w io.Writer, res ChaosResult) {
	fmt.Fprintf(w, "%-6s %-11s %-13s %-13s %-18s %9s %9s %13s %10s %6s %s\n",
		"shard", "scheme", "declared", "audited", "growth", "slope/op", "plateau", "peak-retired", "ops", "ooms", "outcome")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-6d %-11s %-13s %-13s %-18s %9.4f %9.1f %13d %10d %6d %s\n",
			r.Shard, r.Scheme, r.Declared, r.Audited, r.Growth,
			r.Slope, r.Plateau, r.PeakRetired, r.Ops, r.OOMs, r.Outcome)
	}
	for _, ev := range res.Events {
		line := fmt.Sprintf("fault: %-16s shard %d episode %d at %s", ev.Fault, ev.Shard, ev.Episode, ev.At.Round(time.Millisecond))
		if ev.Err != "" {
			line += " FAILED: " + ev.Err
		} else if ev.Healed > 0 {
			line += fmt.Sprintf(" healed at %s", ev.Healed.Round(time.Millisecond))
		}
		fmt.Fprintln(w, line)
	}
	a := res.Agg
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients × batch %d, faults %v, %s/%s mix %s seed %d\n",
		a.Shards, a.Workers, a.Clients, a.Batch, a.Faults, a.Workload, a.Schedule, a.Mix, a.Seed)
	fmt.Fprintf(w, "           %d ops (%d op-errors) in %s, request p50 %s p99 %s, verdicts consistent: %v\n",
		a.Ops, a.OpErrs, a.Elapsed.Round(time.Millisecond), fmtLatency(a.P50), fmtLatency(a.P99), res.Consistent)
}

// WriteObsTable renders EXP-OBS: one line per incident chain, the
// controller's migration log, then the plane's own accounting.
func WriteObsTable(w io.Writer, res ObsResult) {
	fmt.Fprintf(w, "%-5s %-16s %10s %10s %10s %10s %-14s %8s\n",
		"shard", "fault", "fired", "detect", "react", "healed", "migration", "complete")
	for _, in := range res.Timeline.Incidents {
		det, rea := "-", "-"
		if in.DetectionLatency >= 0 {
			det = fmtLatency(in.DetectionLatency)
		}
		if in.ReactionLatency >= 0 {
			rea = fmtLatency(in.ReactionLatency)
		}
		healed := "-"
		if in.HealedAt > 0 {
			healed = in.HealedAt.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-5d %-16s %10s %10s %10s %10s %-14s %8v\n",
			in.Shard, in.Fault, in.FiredAt.Round(time.Millisecond),
			det, rea, healed, in.Migration, in.Complete)
	}
	writeEpisodes(w, res.Episodes)
	fmt.Fprintf(w, "flap: %d ladder moves, %d reversals, %.2f moves/s over %s\n",
		res.Timeline.LadderMoves, res.Timeline.Reversals,
		res.Timeline.FlapRatePerSec, res.Timeline.Span.Round(time.Millisecond))
	fmt.Fprintf(w, "slo: p99 %s vs target %s, breached=%v, %d breach transition(s), %d points\n",
		fmtLatency(res.SLO.P99), fmtLatency(res.SLO.Target), res.SLO.Breached,
		res.SLO.Breaches, len(res.SLO.Points))
	fmt.Fprintf(w, "recorder: %d events (%d dropped); sampler: %d ticks (%d skipped, %d late)\n",
		res.RecorderTotal, res.RecorderDrops,
		res.Sampler.Ticks, res.Sampler.SkippedTicks, res.Sampler.LateSamples)
	if res.Overhead.Rounds > 0 {
		fmt.Fprintf(w, "overhead: recorder on %.3f Mops/s vs off %.3f Mops/s, delta %.1f%% (ok=%v)\n",
			res.Overhead.RecorderOnMops, res.Overhead.RecorderOffMops,
			res.Overhead.DeltaPct, res.Overhead.OK)
	}
	a := res.Agg
	fmt.Fprintf(w, "aggregate: %d shards from %s on ladder %v, faults %v held %s, %s window, %d clients × batch %d, %d ops (%d errs), p99 %s\n",
		a.Shards, a.StartScheme, a.Ladder, a.Faults, a.Hold.Round(time.Millisecond),
		a.Duration, a.Clients, a.Batch, a.Ops, a.OpErrs, fmtLatency(a.P99))
	fmt.Fprintf(w, "           all incident chains complete: %v\n", res.Complete)
}

// WritePipelineTable renders EXP-PIPELINE: one line per A/B arm, the
// partial-failure campaign summary, then the two acceptance headlines.
func WritePipelineTable(w io.Writer, cfg PipelineConfig, res PipelineResult) {
	cfg.fill()
	fmt.Fprintf(w, "%-10s %10s %12s %10s %10s %8s %7s %8s\n",
		"arm", "requests", "req/s", "p50", "p99", "partial", "sheds", "timeouts")
	for _, a := range []PipelineArmRow{res.Blocking, res.Pipelined} {
		fmt.Fprintf(w, "%-10s %10d %12.0f %10s %10s %8d %7d %8d\n",
			a.Arm, a.Requests, a.ReqPerSec, fmtLatency(a.P50), fmtLatency(a.P99),
			a.Partial, a.Sheds, a.Timeouts)
	}
	c := res.Chaos
	fmt.Fprintf(w, "chaos: shard %d stalled %s — %d requests, %d partial, %d sheds, %d timeouts, degraded seen %v\n",
		c.FaultShard, c.Window.Round(time.Millisecond), c.Requests, c.Partial, c.Sheds, c.Timeouts, c.DegradedSeen)
	fmt.Fprintf(w, "       healthy-request p50 %s p99 %s; fault fired %v healed %v clean-after-heal %v\n",
		fmtLatency(c.HealthyP50), fmtLatency(c.HealthyP99), c.FaultFired, c.FaultHeals, c.CleanAfterHeal)
	fmt.Fprintf(w, "       recorder: %d scatter / %d merge / %d shed events\n",
		c.ScatterEvents, c.MergeEvents, c.ShedEvents)
	fmt.Fprintf(w, "aggregate: %d shards × %d workers, %d clients, window %d, %s mix %s\n",
		cfg.Shards, cfg.WorkersPerShard, cfg.Clients, cfg.Window, cfg.Structure, cfg.ReqMix)
	fmt.Fprintf(w, "           pipelined beats blocking: %v (%.2fx); partial chains closed: %v\n",
		res.PipelinedBeatsBlocking, res.Pipelined.ReqPerSecX, res.PartialChainsClosed)
}

// WriteResilTable renders EXP-RESIL: the goodput A/B rows, the hedge
// A/B rows, then the three acceptance headlines.
func WriteResilTable(w io.Writer, cfg ResilConfig, res ResilResult) {
	cfg.fill()
	fmt.Fprintf(w, "%-10s %10s %10s %12s %12s %10s %10s\n",
		"arm", "requests", "clean", "win-reqs", "win-clean", "p50", "p99")
	for _, a := range []ResilArmRow{res.Naive, res.Resilient} {
		fmt.Fprintf(w, "%-10s %10d %10d %12d %12d %10s %10s\n",
			a.Arm, a.Requests, a.Clean, a.WindowRequests, a.WindowClean,
			fmtLatency(a.P50), fmtLatency(a.P99))
	}
	r := res.Resilient
	fmt.Fprintf(w, "retry:  %d retries, %d recovered, %d budget-exhausted, %d sheds, %d timeouts, amplification %.3fx\n",
		r.Retries, r.Recovered, r.BudgetExhausted, r.Sheds, r.Timeouts, r.Amplification)
	fmt.Fprintf(w, "%-10s %10s %8s %10s %10s %8s %8s %8s\n",
		"arm", "requests", "pulses", "p50", "p99", "hedges", "wins", "waste")
	for _, a := range []ResilHedgeRow{res.HedgeBase, res.Hedged} {
		fmt.Fprintf(w, "%-10s %10d %8d %10s %10s %8d %8d %8d\n",
			a.Arm, a.Requests, a.Pulses, fmtLatency(a.P50), fmtLatency(a.P99),
			a.Hedges, a.HedgeWins, a.HedgeWaste)
	}
	fmt.Fprintf(w, "aggregate: %d shards, %d clients, mix %s\n", cfg.Shards, cfg.Clients, cfg.ReqMix)
	fmt.Fprintf(w, "           goodput recovered: %v (%.2fx in fault windows); hedge bounds tail: %v (%.2fx p99); amplification bounded: %v\n",
		res.GoodputRecovered, res.GoodputX, res.HedgeBoundsTail, res.HedgeP99X, res.AmplificationBounded)
}
