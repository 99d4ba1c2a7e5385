package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/store"
	"repro/internal/workload"
)

// Every workload shares the deployment shape: one client process with two
// client goroutines (the host's core count), one worker per shard, point
// batches of 16 operations, and half the key range prefilled.
const (
	clients    = 2
	batchSize  = 16
	setupReps  = 9
	prefillBat = 256
)

// spec is one named workload: the store deployment and the request stream
// that drives it.
type spec struct {
	name string
	why  string
	// open selects the open loop through resil.Client.Do at rate
	// requests per second; false is the closed loop through store.DoInto.
	open      bool
	rate      float64
	scheme    string
	structure string
	shards    int
	keyRange  int
	dist      string
	reqMix    workload.ReqMix
	opMix     workload.Mix
	multi     int
	span      int
	// pool is how many requests each client pre-generates; the loops
	// replay the pool cyclically.
	pool int
}

var specs = []spec{
	{
		name: "point-read",
		why: "the read-heavy shape ROADMAP item 3 profiles: validated Arena.Load, " +
			"ebr's per-ReadPtr advance and the store's sort/fuse/worker hop; " +
			"the working set fits in L2 and exec/resil do no work",
		scheme: "ebr", structure: "hashmap", shards: 8, keyRange: 8192,
		dist: "zipfian", reqMix: workload.ReqMix{PointPct: 100},
		opMix: workload.Mix{ContainsPct: 90, InsertPct: 5, DeletePct: 5},
		pool:  16384,
	},
	{
		name: "churn-hp",
		why: "write-dominated: hp's protect-and-validate fences, Alloc/Retire/scan/Reclaim " +
			"and long bucket chains over an arena larger than L2; uniform keys defeat " +
			"the fused cursor, so an ebr-only or read-only gain predicts no change here",
		scheme: "hp", structure: "hashmap", shards: 4, keyRange: 65536,
		dist: "uniform", reqMix: workload.ReqMix{PointPct: 100},
		opMix: workload.Mix{ContainsPct: 10, InsertPct: 45, DeletePct: 45},
		pool:  8192,
	},
	{
		name: "fanout-open",
		why: "independent users sending cross-shard requests: the only workload where " +
			"exec scatter/merge, the resil policies and ordered skiplist traversal and " +
			"scans do most of the work",
		open: true, rate: 40,
		scheme: "ebr", structure: "skiplist", shards: 4, keyRange: 262144,
		dist: "zipfian", reqMix: workload.ReqMixMixed,
		opMix: workload.MixBalanced, multi: 8, span: 512,
		pool: 16384,
	},
}

func lookup(name string) (*spec, error) {
	var names []string
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
		names = append(names, specs[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// params renders the workload's parameters for the report header.
func (w *spec) params() string {
	loop := "closed loop via store.DoInto"
	if w.open {
		loop = fmt.Sprintf("open loop at %.0f req/s via resil.Client.Do", w.rate)
	}
	return fmt.Sprintf("%s; %d clients; %d shards of %s x %s (1 worker each); keys %d %s; "+
		"req mix %v, op mix %v, batch %d, multi %d, span %d; prefill %d",
		loop, clients, w.shards, w.scheme, w.structure, w.keyRange, w.dist,
		w.reqMix, w.opMix, batchSize, w.multi, w.span, w.keyRange/2)
}

// request is one pre-generated request in every shape a layer's entry
// point takes it.
type request struct {
	req workload.Req
	// ops is the point/multi request as store operations (nil for ranges).
	ops []store.Op
	// units is the key operations the request counts for in ops_per_s:
	// one per key, one per range request.
	units int
	// groups is ops partitioned by shard and key-sorted, the shape the
	// store's workers hand to ds.BatchSet (built only for traced runs).
	groups []group
}

type group struct {
	shard int
	ops   []ds.BatchOp
}

// generate pre-generates each client's request pool from the workload's
// ReqSource, returning the pools and the generation cost per request.
func generate(w *spec, seed uint64) ([][]request, time.Duration) {
	src, err := workload.NewReqSource(workload.ReqConfig{
		Dist: w.dist, KeyRange: w.keyRange, Mix: w.reqMix, OpMix: w.opMix,
		BatchSize: batchSize, MultiSize: w.multi, RangeSpan: w.span, Seed: seed,
	})
	if err != nil {
		panic(err) // the specs above are static
	}
	pools := make([][]request, clients)
	start := time.Now()
	for c := range pools {
		stream := src.Thread(c, w.pool)
		pool := make([]request, w.pool)
		for i := range pool {
			pool[i] = toRequest(stream.Next())
		}
		pools[c] = pool
	}
	return pools, time.Since(start) / time.Duration(clients*w.pool)
}

func toRequest(q workload.Req) request {
	r := request{req: q, units: 1}
	var kind workload.Op
	switch q.Kind {
	case workload.ReqRangeScan, workload.ReqRangeCount:
		return r
	case workload.ReqMultiInsert:
		kind = workload.OpInsert
	case workload.ReqMultiDelete:
		kind = workload.OpDelete
	default:
		kind = workload.OpContains
	}
	r.ops = make([]store.Op, len(q.Keys))
	for i, k := range q.Keys {
		op := kind
		if q.Kind == workload.ReqPoint {
			op = q.Ops[i]
		}
		r.ops[i] = store.Op{Kind: op, Key: k}
	}
	r.units = len(r.ops)
	return r
}

// partition fills every request's per-shard groups, routed by the store's
// own hash and stably key-sorted as the store's workers sort a batch.
func partition(pools [][]request, shardFor func(int64) int) {
	for _, pool := range pools {
		for i := range pool {
			r := &pool[i]
			byShard := map[int][]ds.BatchOp{}
			for _, op := range r.ops {
				s := shardFor(op.Key)
				byShard[s] = append(byShard[s], ds.BatchOp{Kind: ds.BatchKind(op.Kind), Key: op.Key})
			}
			for s, ops := range byShard {
				sort.SliceStable(ops, func(a, b int) bool { return ops[a].Key < ops[b].Key })
				r.groups = append(r.groups, group{shard: s, ops: ops})
			}
			slices.SortFunc(r.groups, func(a, b group) int { return a.shard - b.shard })
		}
	}
}

// prefillKeys draws the seeded half of the key range the store starts with.
func prefillKeys(w *spec, seed uint64) []int64 {
	keys := make([]int64, w.keyRange)
	for i := range keys {
		keys[i] = int64(i)
	}
	rng := workload.RNG(seed ^ 0x5eed_f111)
	for i := len(keys) - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:w.keyRange/2]
}

func newStore(w *spec) (*store.Store, error) {
	return store.New(store.Config{
		Shards:   store.Uniform(w.shards, store.ShardSpec{Scheme: w.scheme, Structure: w.structure, Workers: 1}),
		KeyRange: w.keyRange,
	})
}

// prefill inserts keys through store.DoInto from every client goroutine and
// returns how many inserts succeeded.
func prefill(st *store.Store, keys []int64) (uint64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inserted uint64
		firstErr error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := make([]store.Op, 0, prefillBat)
			res := make([]store.Result, prefillBat)
			var n uint64
			var err error
			for lo := c * prefillBat; lo < len(keys) && err == nil; lo += clients * prefillBat {
				ops = ops[:0]
				for _, k := range keys[lo:min(lo+prefillBat, len(keys))] {
					ops = append(ops, store.Op{Kind: workload.OpInsert, Key: k})
				}
				if err = st.DoInto(ops, res); err != nil {
					break
				}
				for i := range ops {
					if res[i].Err != nil {
						err = res[i].Err
						break
					}
					if res[i].OK {
						n++
					}
				}
			}
			mu.Lock()
			inserted += n
			if firstErr == nil && err != nil {
				firstErr = fmt.Errorf("prefill: %w", err)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return inserted, firstErr
}

// setup builds and prefills the store setupReps times, keeping the last
// build, and returns the median build-and-prefill time.
func setup(w *spec, keys []int64) (*store.Store, uint64, float64, error) {
	times := make([]float64, 0, setupReps)
	for rep := 0; ; rep++ {
		start := time.Now()
		st, err := newStore(w)
		if err != nil {
			return nil, 0, 0, err
		}
		n, err := prefill(st, keys)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			st.Close()
			return nil, 0, 0, err
		}
		if rep == setupReps-1 {
			return st, n, median(times), nil
		}
		if err := st.Close(); err != nil {
			return nil, 0, 0, fmt.Errorf("close setup store: %w", err)
		}
	}
}
