package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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

// spanRec is one traced interval: a rung (parent -1) or one request the
// rung sent into its layer's entry point.
type spanRec struct {
	name       string
	id, parent int
	req        int64
	start, end time.Duration // since the tracer's base
	ops        int
}

// tracer keeps spans in memory; write saves them when the run ends. The
// request spans of a rung are appended per client without locking and
// folded into the rung when it closes.
type tracer struct {
	base    time.Time
	spans   []spanRec
	rung    spanRec
	clients [][]spanRec
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), clients: make([][]spanRec, clients)}
}

// open starts a rung span.
func (tr *tracer) open(name string) {
	tr.rung = spanRec{name: name, id: len(tr.spans), parent: -1, start: time.Since(tr.base)}
	tr.spans = append(tr.spans, spanRec{}) // the rung's slot, filled by close
}

// span records one request of the open rung sent by client c.
func (tr *tracer) span(c, ops int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.clients[c] = append(tr.clients[c], spanRec{
		name: tr.rung.name, parent: tr.rung.id, req: int64(c)<<40 | int64(len(tr.clients[c])),
		start: start.Sub(tr.base), end: end.Sub(tr.base), ops: ops,
	})
}

// close ends the open rung and returns the sorted per-request and per-op
// span lengths in nanoseconds.
func (tr *tracer) close() (perReq, perOp dist) {
	tr.rung.end = time.Since(tr.base)
	tr.spans[tr.rung.id] = tr.rung
	for c, cs := range tr.clients {
		for _, s := range cs {
			s.id = len(tr.spans)
			tr.spans = append(tr.spans, s)
			d := float64(s.end - s.start)
			perReq = append(perReq, d)
			perOp = append(perOp, d/float64(s.ops))
		}
		tr.clients[c] = cs[:0]
	}
	slices.Sort(perReq)
	slices.Sort(perOp)
	return perReq, perOp
}

// write saves every span as CSV.
func (tr *tracer) write(path string, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nname,id,parent,req,start_ns,end_ns,ops\n", header)
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.req, s.start.Nanoseconds(), s.end.Nanoseconds(), s.ops)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungResult is what one rung of the ladder measured.
type rungResult struct {
	perReq, perOp dist
	wall          time.Duration
	reqs, ops     uint64
	mallocs       uint64
	tally         tally
}

func (r *rungResult) opsPerSec() float64 { return float64(r.ops) / r.wall.Seconds() }
func (r *rungResult) mallocsPerReq() float64 {
	return float64(r.mallocs) / float64(r.reqs)
}

// rung replays the first n requests of every client's pool through fn,
// each client on its own goroutine, with one span per request.
func rung(tr *tracer, name string, pools [][]request, n int, fn func(c int, r *request, t *tally)) rungResult {
	var ms0, ms1 runtime.MemStats
	tallies := make([]tally, len(pools))
	ops := make([]uint64, len(pools))
	for c := range pools {
		tr.clients[c] = make([]spanRec, 0, n)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	tr.open(name)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range pools {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pool := pools[c]
			for i := 0; i < n; i++ {
				r := &pool[i%len(pool)]
				t0 := time.Now()
				fn(c, r, &tallies[c])
				tr.span(c, r.units, t0, time.Now())
				ops[c] += uint64(r.units)
			}
		}(c)
	}
	wg.Wait()
	out := rungResult{wall: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	out.perReq, out.perOp = tr.close()
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	for c := range pools {
		out.tally.add(tallies[c])
		out.reqs += uint64(n)
		out.ops += ops[c]
	}
	return out
}

// dsStack mirrors the store's shards below the store layer: one arena,
// scheme instance and structure per shard, built the way the store builds
// a shard, driven directly through ds.BatchSet and ds.Iterator.
type dsStack struct {
	arenas  []*mem.Arena
	schemes []smr.Scheme
	sets    []ds.Set
	prefill uint64
	// ranges counts range requests served and rangeSteps the traversal
	// steps their iterator walks took, so point-op and range costs can be
	// told apart in the aggregate traversal counters.
	ranges, rangeSteps atomic.Uint64
}

func newDSStack(w *spec, scheme string, threshold, extraSlots int, keys []int64, shardFor func(int64) int) (*dsStack, error) {
	info, err := registry.Get(w.structure)
	if err != nil {
		return nil, err
	}
	s := &dsStack{}
	for i := 0; i < w.shards; i++ {
		a := mem.NewArena(mem.Config{
			Slots:        2*w.keyRange/w.shards + 4096 + 64*clients + extraSlots,
			PayloadWords: info.PayloadWords,
			MetaWords:    smr.MetaWords,
			Threads:      clients,
			Mode:         mem.Reuse,
		})
		sch, err := all.New(scheme, a, clients, threshold)
		if err != nil {
			return nil, err
		}
		set, err := info.NewSet(sch, ds.Options{})
		if err != nil {
			return nil, err
		}
		if _, ok := set.(ds.BatchSet); !ok {
			return nil, fmt.Errorf("%s does not implement ds.BatchSet", set.Name())
		}
		if _, ok := set.(ds.Iterator); !ok {
			return nil, fmt.Errorf("%s does not implement ds.Iterator", set.Name())
		}
		s.arenas, s.schemes, s.sets = append(s.arenas, a), append(s.schemes, sch), append(s.sets, set)
	}
	for _, k := range keys {
		ok, err := s.sets[shardFor(k)].Insert(0, k)
		if err != nil {
			return nil, fmt.Errorf("ds prefill: %w", err)
		}
		if ok {
			s.prefill++
		}
	}
	return s, nil
}

// do serves one request on thread c: each shard group through ApplyBatch,
// a range through every shard's iterator.
func (s *dsStack) do(c int, r *request, t *tally, res []ds.BatchResult, keys *[]int64) {
	if r.ops == nil {
		s.ranges.Add(1)
		for _, set := range s.sets {
			*keys = (*keys)[:0]
			var n uint64
			before := set.(ds.TravReporter).TravSnapshot().Steps
			err := set.(ds.Iterator).Iterate(c, func(k int64) bool {
				if k >= r.req.Hi {
					return false
				}
				if k >= r.req.Lo {
					n++
					*keys = append(*keys, k)
				}
				return true
			})
			s.rangeSteps.Add(set.(ds.TravReporter).TravSnapshot().Steps - before)
			if err == nil {
				err = checkRange(r.req, *keys, n)
			}
			if err != nil {
				t.fail(err)
				return
			}
		}
		return
	}
	for _, g := range r.groups {
		s.sets[g.shard].(ds.BatchSet).ApplyBatch(c, g.ops, res)
		for i, op := range g.ops {
			switch {
			case res[i].Err != nil:
				t.fail(fmt.Errorf("ds key %d: %w", op.Key, res[i].Err))
				return
			case !res[i].OK:
			case op.Kind == ds.BatchInsert:
				t.inserts++
			case op.Kind == ds.BatchDelete:
				t.deletes++
			}
		}
	}
}

type dsCounts struct {
	mem      mem.Snapshot
	smr      smr.StatsSnapshot
	trav     ds.TravSnapshot
	maxRetir uint64
}

func (s *dsStack) counts() dsCounts {
	var out dsCounts
	for i, a := range s.arenas {
		sn := a.Stats().Snapshot()
		out.mem.Allocs += sn.Allocs
		out.mem.Reclaims += sn.Reclaims
		out.mem.UnsafeLoads += sn.UnsafeLoads
		out.mem.UnsafeStores += sn.UnsafeStores
		out.mem.Faults += sn.Faults
		out.mem.Violations += sn.Violations
		out.mem.OOMs += sn.OOMs
		out.maxRetir += sn.MaxRetired
		ss := s.schemes[i].Stats().Snapshot()
		out.smr.Scans += ss.Scans
		out.smr.Restarts += ss.Restarts
		out.smr.StaleUses += ss.StaleUses
		out.trav = out.trav.Merge(s.sets[i].(ds.TravReporter).TravSnapshot())
	}
	return out
}

// check runs the gate on the stack: safety counters and conservation.
func (s *dsStack) check(g *gate, where string, keyRange int, t tally) {
	c := s.counts()
	g.safety(where, store.Stats{
		UnsafeAccesses: c.mem.UnsafeAccesses(), Faults: c.mem.Faults, Violations: c.mem.Violations,
		OOMs: c.mem.OOMs, StaleUses: c.smr.StaleUses, GuardTrips: c.trav.GuardTrips,
	})
	var live uint64
	for _, set := range s.sets {
		if err := set.(ds.Iterator).Iterate(0, func(k int64) bool {
			if k >= 0 && k < int64(keyRange) {
				live++
			}
			return true
		}); err != nil {
			g.failf("%s: iterate: %v", where, err)
			return
		}
	}
	g.conserve(where, s.prefill, t, live)
	g.failures(where, t)
}

// memStack is the raw arena rung: per shard, an arena holding one live node
// per prefilled key, walked with validated loads and cycled through
// Alloc→Retire→Reclaim at the rates the ds rung measured.
type memStack struct {
	arenas []*mem.Arena
	live   [][]mem.Ref
	// loads is the validated Arena.Load calls per point op, rangeLoads per
	// shard per range request, and allocs the Alloc→Retire→Reclaim cycles
	// per point op (fractional rates accumulate per client in credit).
	loads, rangeLoads int
	allocs            float64
	credit            []float64
}

func newMemStack(w *spec, keys []int64, shardFor func(int64) int) (*memStack, error) {
	m := &memStack{credit: make([]float64, clients), live: make([][]mem.Ref, w.shards)}
	for i := 0; i < w.shards; i++ {
		m.arenas = append(m.arenas, mem.NewArena(mem.Config{
			Slots: 2*w.keyRange/w.shards + 4096 + 64*clients, PayloadWords: 2,
			MetaWords: smr.MetaWords, Threads: clients, Mode: mem.Reuse,
		}))
	}
	for _, k := range keys {
		s := shardFor(k)
		r, err := m.arenas[s].Alloc(0)
		if err == nil {
			err = m.arenas[s].Store(0, r, ds.WKey, uint64(k))
		}
		if err == nil {
			err = m.arenas[s].MarkShared(r)
		}
		if err != nil {
			return nil, fmt.Errorf("mem prefill: %w", err)
		}
		m.live[s] = append(m.live[s], r)
	}
	return m, nil
}

// walk performs n validated loads on consecutive live nodes of a shard,
// starting at a node picked by key.
func (m *memStack) walk(c, shard int, key int64, n int) error {
	a, live := m.arenas[shard], m.live[shard]
	at := int(uint64(key) * 0x9e3779b97f4a7c15 % uint64(len(live)))
	for j := 0; j < n; j++ {
		if _, err := a.Load(c, live[(at+j)%len(live)], ds.WKey); err != nil {
			return err
		}
	}
	return nil
}

func cycle(a *mem.Arena, c int) error {
	r, err := a.Alloc(c)
	if err == nil {
		err = a.Retire(c, r)
	}
	if err == nil {
		err = a.Reclaim(c, r)
	}
	return err
}

func (m *memStack) do(c int, r *request, t *tally) {
	if err := m.serve(c, r); err != nil {
		t.fail(err)
	}
}

func (m *memStack) serve(c int, r *request) error {
	if r.ops == nil {
		for s := range m.arenas {
			if err := m.walk(c, s, r.req.Lo, m.rangeLoads); err != nil {
				return err
			}
		}
		return nil
	}
	for _, g := range r.groups {
		for _, op := range g.ops {
			if err := m.walk(c, g.shard, op.Key, m.loads); err != nil {
				return err
			}
			for m.credit[c] += m.allocs; m.credit[c] >= 1; m.credit[c]-- {
				if err := cycle(m.arenas[g.shard], c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// micro times the arena's two primitive paths on one goroutine: a validated
// load of a random live node, and one Alloc→Retire→Reclaim cycle.
func (m *memStack) micro(seed uint64) (loadNS, cycleNS float64, err error) {
	const loads, cycles = 1 << 18, 1 << 16
	rng := workload.RNG(seed)
	a, live := m.arenas[0], m.live[0]
	idx := make([]int, loads)
	for i := range idx {
		idx[i] = int(rng.Next() % uint64(len(live)))
	}
	start := time.Now()
	for _, i := range idx {
		if _, err := a.Load(0, live[i], ds.WKey); err != nil {
			return 0, 0, err
		}
	}
	loadNS = float64(time.Since(start).Nanoseconds()) / loads
	start = time.Now()
	for i := 0; i < cycles; i++ {
		if err := cycle(a, 0); err != nil {
			return 0, 0, err
		}
	}
	cycleNS = float64(time.Since(start).Nanoseconds()) / cycles
	return loadNS, cycleNS, nil
}

// ladder is everything the traced run needs to replay the request pools at
// each entry point down the stack.
type ladder struct {
	w        *spec
	seed     uint64
	st       *store.Store
	ex       *exec.Executor
	cl       *resil.Client
	pools    [][]request
	keys     []int64
	n        int
	tr       *tracer
	g        *gate
	storeTal *tally
}

// level replays the ladder at the current GOMAXPROCS and reports its
// per-layer metrics with the given suffix. It returns the store rung's
// throughput for the scaling metric.
func (l *ladder) level(suffix string, rep *report) (float64, error) {
	w, st := l.w, l.st
	threshold := 0
	if sp, err := st.Spec(0); err == nil {
		threshold = sp.Threshold
	}
	sfx := func(name string) string { return name + "." + suffix }
	storeRes := make([][]store.Result, clients)
	dsRes := make([][]ds.BatchResult, clients)
	scanKeys := make([][]int64, clients)
	for c := range storeRes {
		storeRes[c] = make([]store.Result, batchSize)
		dsRes[c] = make([]ds.BatchResult, batchSize)
	}

	rs0, es0 := l.cl.Stats(), l.cl.Executor().Stats()
	rResil := rung(l.tr, "resil."+suffix, l.pools, l.n, func(c int, r *request, t *tally) {
		res, err := l.cl.Do(r.req)
		t.result(r, res, err)
	})
	rs1, es1 := l.cl.Stats(), l.cl.Executor().Stats()
	x0 := l.ex.Stats()
	rExec := rung(l.tr, "exec."+suffix, l.pools, l.n, func(c int, r *request, t *tally) {
		h, err := l.ex.Submit(r.req)
		if err != nil {
			t.fail(err)
			return
		}
		t.result(r, h.Wait(), nil)
	})
	x1 := l.ex.Stats()
	ss1 := st.Stats()
	rStore := rung(l.tr, "store."+suffix, l.pools, l.n, func(c int, r *request, t *tally) {
		if r.ops != nil {
			if err := st.DoInto(r.ops, storeRes[c]); err != nil {
				t.fail(err)
				return
			}
			t.point(r.ops, storeRes[c][:len(r.ops)])
			return
		}
		for s := 0; s < st.Shards(); s++ {
			keys, n, err := st.ScanShard(s, r.req.Lo, r.req.Hi, 0, r.req.Kind == workload.ReqRangeCount)
			if err == nil {
				err = checkRange(r.req, keys, n)
			}
			store.RecycleScanKeys(keys)
			if err != nil {
				t.fail(err)
				return
			}
		}
	})
	ss2 := st.Stats()
	for _, r := range []*rungResult{&rResil, &rExec, &rStore} {
		l.storeTal.add(r.tally)
	}

	dsScheme, err := newDSStack(w, w.scheme, threshold, 0, l.keys, st.ShardFor)
	if err != nil {
		return 0, err
	}
	d0 := dsScheme.counts()
	rDS := rung(l.tr, "ds."+w.scheme+"."+suffix, l.pools, l.n, func(c int, r *request, t *tally) {
		dsScheme.do(c, r, t, dsRes[c], &scanKeys[c])
	})
	d1 := dsScheme.counts()
	dsScheme.check(l.g, "ds under "+w.scheme+" ("+suffix+")", w.keyRange, rDS.tally)

	// none never reclaims: size its heaps for every insert the rung can make.
	dsNone, err := newDSStack(w, "none", threshold, int(rDS.ops/uint64(w.shards))+1024, l.keys, st.ShardFor)
	if err != nil {
		return 0, err
	}
	n0 := dsNone.counts()
	rNone := rung(l.tr, "ds.none."+suffix, l.pools, l.n, func(c int, r *request, t *tally) {
		dsNone.do(c, r, t, dsRes[c], &scanKeys[c])
	})
	n1 := dsNone.counts()
	dsNone.check(l.g, "ds under none ("+suffix+")", w.keyRange, rNone.tally)

	// The raw arena rung replays the none rung's arena work: one key and
	// one link load per traversal step, and its allocation rate.
	ms, err := newMemStack(w, l.keys, st.ShardFor)
	if err != nil {
		return 0, err
	}
	// A range's step delta can include the other client's concurrent
	// steps on the same set, so it is capped at the rung's total.
	ranges := float64(dsNone.ranges.Load())
	steps := float64(n1.trav.Steps - n0.trav.Steps)
	rangeSteps := min(steps, float64(dsNone.rangeSteps.Load()))
	pointOps := float64(rNone.ops) - ranges
	ms.loads = max(1, int(2*ratio(steps-rangeSteps, pointOps)+0.5))
	ms.rangeLoads = int(2*ratio(rangeSteps, ranges*float64(w.shards)) + 0.5)
	ms.allocs = ratio(float64(n1.mem.Allocs-n0.mem.Allocs), pointOps)
	rMem := rung(l.tr, "mem."+suffix, l.pools, l.n, func(c int, r *request, t *tally) { ms.do(c, r, t) })
	if rMem.tally.failed > 0 {
		l.g.failf("mem rung (%s): %v", suffix, rMem.tally.firstErr)
	}
	loadNS, cycleNS, err := ms.micro(l.seed)
	if err != nil {
		l.g.failf("mem micro-loop (%s): %v", suffix, err)
	}

	ops := float64(rDS.ops)
	kops := ops / 1000
	rep.add(sfx("mem.load_ns"), "ns", loadNS)
	rep.add(sfx("mem.alloc_cycle_ns"), "ns", cycleNS)
	rep.add(sfx("mem.allocs_per_op"), "count", float64(d1.mem.Allocs-d0.mem.Allocs)/ops)
	rep.add(sfx("mem.reclaims_per_op"), "count", float64(d1.mem.Reclaims-d0.mem.Reclaims)/ops)

	rep.add(sfx("smr.self_ns_per_op"), "ns", rDS.perOp.median()-rNone.perOp.median())
	rep.add(sfx("smr.scans_per_kop"), "count", float64(d1.smr.Scans-d0.smr.Scans)/kops)
	rep.add(sfx("smr.restarts_per_kop"), "count", float64(d1.smr.Restarts-d0.smr.Restarts)/kops)
	rep.add(sfx("smr.retired_peak"), "count", float64(d1.maxRetir))

	rep.add(sfx("ds.ns_per_op"), "ns", rNone.perOp.median()-rMem.perOp.median())
	rep.add(sfx("ds.trav_steps_per_op"), "count", float64(d1.trav.Steps-d0.trav.Steps)/ops)
	rep.add(sfx("ds.trav_restarts_per_kop"), "count", float64(d1.trav.Restarts-d0.trav.Restarts)/kops)
	rep.add(sfx("ds.max_op_steps"), "count", float64(d1.trav.MaxOpSteps))

	sOps := float64(rStore.ops)
	batches := float64(ss2.FusedBatches - ss1.FusedBatches)
	rep.add(sfx("store.self_ns_per_op"), "ns", rStore.perOp.median()-rDS.perOp.median())
	rep.add(sfx("store.ops_per_window"), "count", ratio(float64(ss2.FusedOps-ss1.FusedOps), batches))
	rep.add(sfx("store.rebrackets_per_kop"), "count", float64(ss2.Rebrackets-ss1.Rebrackets)/(sOps/1000))
	rep.add(sfx("store.sorts_per_batch"), "count", ratio(float64(ss2.BatchSorts-ss1.BatchSorts), batches))
	rep.add(sfx("store.allocs_per_req"), "count", rStore.mallocsPerReq())

	legs := float64(x1.Legs - x0.Legs)
	rep.add(sfx("exec.self_us_per_req"), "us", (rExec.perReq.median()-rStore.perReq.median())/1000)
	rep.add(sfx("exec.legs_per_req"), "count", legs/float64(rExec.reqs))
	rep.add(sfx("exec.shed_frac"), "ratio", ratio(float64(x1.Sheds-x0.Sheds), legs+float64(x1.Sheds-x0.Sheds)))
	rep.add(sfx("exec.timeouts"), "count", float64(x1.Timeouts-x0.Timeouts))
	rep.add(sfx("exec.allocs_per_req"), "count", rExec.mallocsPerReq()-rStore.mallocsPerReq())

	offered := float64(rs1.OfferedUnits - rs0.OfferedUnits)
	rep.add(sfx("resil.self_us_per_req"), "us", (rResil.perReq.median()-rExec.perReq.median())/1000)
	rep.add(sfx("resil.attempts_per_req"), "count", ratio(float64(rs1.Attempts-rs0.Attempts), float64(rs1.Requests-rs0.Requests)))
	rep.add(sfx("resil.amplification"), "ratio", ratio(float64(rs1.AttemptUnits-rs0.AttemptUnits+rs1.HedgeUnits-rs0.HedgeUnits), offered))
	rep.add(sfx("resil.hedge_waste_frac"), "ratio", ratio(float64(es1.HedgeWaste-es0.HedgeWaste),
		float64(es1.Legs-es0.Legs+es1.Hedges-es0.Hedges)))
	return rStore.opsPerSec(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the per-layer run: an untraced and a traced pass of the
// workload's own loop (their throughput difference is the tracing
// overhead), then the request pools replayed at every entry point down the
// stack, at all cores and at GOMAXPROCS=1.
func runTraced(w *spec, seed uint64, seconds float64, out string) (*report, error) {
	pools, gen := generate(w, seed)
	keys := prefillKeys(w, seed)
	st, err := newStore(w)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	prefilled, err := prefill(st, keys)
	if err != nil {
		return nil, err
	}
	cl, err := resil.New(st, exec.Config{}, resilConfig(seed))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ex, err := exec.New(st, exec.Config{})
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	partition(pools, st.ShardFor)

	rep := &report{}
	g := &gate{}
	tr := newTracer()
	var total tally
	warm := time.Duration(seconds * float64(time.Second) / 20)
	window := time.Duration(seconds * float64(time.Second) / 4)
	un := e2e(w, st, cl, pools, warm, window, nil)
	tr.open("e2e.traced")
	traced := e2e(w, st, cl, pools, warm, window, tr)
	tr.close()
	total.add(un.tally)
	total.add(traced.tally)
	// Check the store between phases too, so a violation is pinned to the
	// workload's own loop or to the ladder.
	if err := g.check("store after the e2e passes", st, w.keyRange, prefilled, total); err != nil {
		return nil, err
	}

	// Size the rungs so the whole ladder (six rungs, two levels) fits in
	// about half the budget at the untraced pass's request rate; the lower
	// rungs are faster than the top one.
	reqRate := float64(un.tally.attempted) / (warm + window).Seconds()
	n := min(w.pool, max(128, int(reqRate*seconds/2/12/clients)))
	l := &ladder{w: w, seed: seed, st: st, ex: ex, cl: cl, pools: pools, keys: keys, n: n, tr: tr, g: g, storeTal: &total}
	procs := runtime.GOMAXPROCS(0)
	all, err := l.level("pall", rep)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	one, err := l.level("p1", rep)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	rep.add("store.scaling_eff", "ratio", all/(float64(procs)*one))
	rep.add("workload.gen_ns_per_req", "ns", float64(gen.Nanoseconds()))
	late, _ := un.late.tail(0.99)
	rep.add("workload.late_p99_us", "us", late/1000)
	rep.add("trace.overhead_frac", "ratio", 1-traced.opsPerSec()/un.opsPerSec())
	rep.add("e2e.alloc_b_per_op", "B/op", float64(un.allocBytes)/float64(un.tally.units))

	where := fmt.Sprintf("store after the ladder (resil hedged %d legs)", cl.Stats().Hedges)
	if err := g.check(where, st, w.keyRange, prefilled, total); err != nil {
		return nil, err
	}
	rep.add("e2e.fail_frac", "ratio", ratio(float64(total.failed), float64(total.attempted)))
	rep.finish(g, total)
	path := filepath.Join(out, "spans-"+w.name+".csv")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path, fmt.Sprintf("workload=%s seed=%d %s", w.name, seed, host())); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return rep, nil
}
