// Command perfbench is the repository's benchmark. It drives the sharded
// SMR store through the public entry point of every layer on the serving
// path (workload → resil → exec → store → ds → smr → mem) on three named
// workloads, checks every result, and prints the end-to-end metrics or,
// with --trace 1, the per-layer cost ledger. METRICS.md lists the metrics
// and which workload each layer's metrics should move on.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/resil"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: point-read, churn-hp or fanout-open")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds, *out)
	} else {
		rep, err = runE2E(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host())
	fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%d: %s\n", w.name, *seed, *seconds, *trace, w.params())
	fmt.Fprintf(stdout, "why: %s\n", w.why)
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "%-32s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, v := range rep.gate.violations {
		fmt.Fprintln(stdout, "GATE FAILED:", v)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rep.gate.ok() {
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
	note       string
	// hidden metrics are printed but left out of the JSON result.
	hidden bool
}

// report is one run's outcome: its metrics in print order and its gate.
type report struct {
	metrics           []metric
	notes             []string
	gate              *gate
	attempted, failed uint64
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) addNote(name, unit string, v float64, note string, hidden bool) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note, hidden: hidden})
}

// finish records the run's request ledger and fails the gate on any
// failed request.
func (r *report) finish(g *gate, t tally) {
	g.failures("requests", t)
	r.gate, r.attempted, r.failed = g, t.attempted, t.failed
	if r.attempted == 0 {
		r.attempted = 1
		r.failed = 1
		g.failf("no request was attempted")
	}
}

func (r *report) json() (string, error) {
	ms := map[string]any{}
	for _, m := range r.metrics {
		if !m.hidden {
			ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.gate.ok(), "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	return string(b), err
}

// host stamps a result with the machine it was measured on.
func host() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func resilConfig(seed uint64) resil.Config {
	// Retries (the default three attempts), hedging and breakers armed;
	// no verdict monitor, recorder or faults.
	return resil.Config{Seed: seed, Hedge: true, Breaker: true}
}

// e2e runs the workload's own loop: closed through store.DoInto, or open
// through resil.Client.Do.
func e2e(w *spec, st *store.Store, cl *resil.Client, pools [][]request, warm, window time.Duration, tr *tracer) loopResult {
	if w.open {
		return openLoop(cl.Do, pools, w.rate, maxInFlight, warm, window, tr)
	}
	return closedLoop(st, pools, warm, window, tr)
}

// runE2E is the untraced end-to-end run: set up (several times, reporting
// the median), warm up, measure the timed window, check.
func runE2E(w *spec, seed uint64, seconds float64) (*report, error) {
	pools, _ := generate(w, seed)
	keys := prefillKeys(w, seed)
	st, prefilled, setupS, err := setup(w, keys)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var cl *resil.Client
	if w.open {
		if cl, err = resil.New(st, exec.Config{}, resilConfig(seed)); err != nil {
			return nil, err
		}
		defer cl.Close()
	}
	window := time.Duration(seconds * float64(time.Second))
	res := e2e(w, st, cl, pools, window/10, window, nil)

	var peak float64
	for _, s := range st.Stats().Shards {
		peak += ratio(float64(s.MaxRetired), float64(s.MaxActive))
	}
	g := &gate{}
	if err := g.check("store", st, w.keyRange, prefilled, res.tally); err != nil {
		return nil, err
	}

	rep := &report{}
	n := len(res.lat)
	rate, p50, p99, q := res.summary()
	p50All := res.lat.median()
	p99All, _ := res.lat.tail(0.99)
	top, qTop := res.lat.highest()
	per := fmt.Sprintf("median of %d slices", len(res.subs))
	rep.addNote("ops_per_s", "ops/s", rate, fmt.Sprintf("%s; whole window %.6g", per, res.opsPerSec()), false)
	rep.addNote("lat_p50_us", "us", p50/1000, fmt.Sprintf("%s; whole window %.6g, n=%d of %d", per, p50All/1000, n, res.samples), false)
	rep.addNote("lat_p99_us", "us", p99/1000, fmt.Sprintf("p%.4g, %s; whole window %.6g", 100*q, per, p99All/1000), false)
	rep.addNote("lat_tail_us", "us", top/1000, fmt.Sprintf("p%.6g of the whole window: highest with >=10 samples beyond, n=%d", 100*qTop, n), true)
	rep.addNote("fail_frac", "ratio", ratio(float64(res.tally.failed), float64(res.tally.attempted)),
		fmt.Sprintf("%d of %d requests", res.tally.failed, res.tally.attempted), true)
	rep.add("retired_peak_ratio", "ratio", peak)
	rep.addNote("alloc_b_per_op", "B/op", float64(res.allocBytes)/float64(res.tally.units), "", true)
	rep.addNote("setup_s", "s", setupS, fmt.Sprintf("median of %d build+prefill", setupReps), false)
	if w.open {
		late, _ := res.late.tail(0.99)
		rs, es := cl.Stats(), cl.Executor().Stats()
		rep.notes = append(rep.notes, fmt.Sprintf("generator late p99 %.1f us; resil attempts %d for %d requests, "+
			"hedges %d (wasted %d), leg timeouts %d, sheds %d, partial %d",
			late/1000, rs.Attempts, rs.Requests, es.Hedges, es.HedgeWaste, es.Timeouts, es.Sheds, es.Partial))
	}
	rep.finish(g, res.tally)
	return rep, nil
}
