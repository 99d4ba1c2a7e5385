package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/workload"
)

// samples keeps request latencies in a fixed buffer. When the buffer fills
// it keeps every other sample and halves the sampling rate from then on, so
// a long or fast run stays an even subsample of the whole window and never
// allocates inside it.
type samples struct {
	v      []uint32 // nanoseconds, saturated
	stride uint64
	seen   uint64
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]uint32, 0, capacity), stride: 1}
}

func (s *samples) add(d time.Duration) {
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.v) == cap(s.v) {
		half := len(s.v) / 2
		for i := 0; i < half; i++ {
			s.v[i] = s.v[2*i+1]
		}
		s.v = s.v[:half]
		s.stride *= 2
		if s.seen%s.stride != 0 {
			return
		}
	}
	s.v = append(s.v, uint32(min(d, time.Duration(math.MaxUint32))))
}

// dist is the sorted union of several sample sets.
type dist []float64

func merge(sets ...*samples) dist {
	var d dist
	for _, s := range sets {
		for _, v := range s.v {
			d = append(d, float64(v))
		}
	}
	slices.Sort(d)
	return d
}

// rank returns the sorted index nearest-rank quantile q selects.
func rank(n int, q float64) int {
	return max(0, min(n-1, int(math.Ceil(q*float64(n)-1e-9))-1))
}

// median returns the middle value of xs (nearest rank); xs is not modified.
func median(xs []float64) float64 {
	d := dist(slices.Clone(xs))
	slices.Sort(d)
	return d.median()
}

// tail applies the percentile rule: a percentile is reported only when at
// least ten samples lie beyond it. It returns the value at quantile q, or at
// the highest quantile that still has ten samples beyond it when q has
// fewer, together with the quantile actually used (0 when there are not
// eleven samples at all).
func (d dist) tail(q float64) (float64, float64) {
	n := len(d)
	if n < 11 {
		if n == 0 {
			return 0, 0
		}
		return d[n-1], 0
	}
	k := min(rank(n, q), n-11)
	return d[k], float64(k+1) / float64(n)
}

// highest returns the highest percentile with at least ten samples beyond
// it, and that percentile.
func (d dist) highest() (float64, float64) { return d.tail(1) }

func (d dist) median() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), 0.5)]
}

// tally is one client's ledger: requests attempted and failed, successful
// writes (the conservation checker's input), and the first failure seen.
type tally struct {
	attempted, failed uint64
	units             uint64 // key operations attempted
	inserts, deletes  uint64
	firstErr          error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.units += o.units
	t.inserts += o.inserts
	t.deletes += o.deletes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// point checks one point/multi request's store results and books its
// successful writes. It reports whether the request succeeded.
func (t *tally) point(ops []store.Op, res []store.Result) bool {
	if len(res) < len(ops) {
		t.fail(fmt.Errorf("%d results for %d keys", len(res), len(ops)))
		return false
	}
	for i, op := range ops {
		if err := res[i].Err; err != nil {
			t.fail(fmt.Errorf("key %d: %w", op.Key, err))
			return false
		}
	}
	for i, op := range ops {
		if !res[i].OK {
			continue
		}
		switch op.Kind {
		case workload.OpInsert:
			t.inserts++
		case workload.OpDelete:
			t.deletes++
		}
	}
	return true
}

// result checks one merged exec/resil result against its request: no
// partial legs, multi-key results one-for-one with the keys, range results
// sorted, unique and inside [Lo, Hi).
func (t *tally) result(r *request, res *exec.Result, err error) bool {
	switch {
	case err != nil:
		t.fail(err)
		return false
	case res.Partial():
		t.fail(fmt.Errorf("partial %v result: %v", r.req.Kind, res.ShardErrs[0].Reason))
		return false
	}
	if r.ops != nil {
		if len(res.Results) != len(r.ops) {
			t.fail(fmt.Errorf("%v: %d results for %d keys", r.req.Kind, len(res.Results), len(r.ops)))
			return false
		}
		return t.point(r.ops, res.Results)
	}
	if err := checkRange(r.req, res.Keys, res.Count); err != nil {
		t.fail(err)
		return false
	}
	return true
}

// checkRange validates a range result: keys strictly ascending (sorted and
// unique) inside [Lo, Hi), and a scan's count equal to its payload.
func checkRange(q workload.Req, keys []int64, count uint64) error {
	for i, k := range keys {
		if k < q.Lo || k >= q.Hi {
			return fmt.Errorf("range [%d,%d): key %d outside", q.Lo, q.Hi, k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("range [%d,%d): keys %d, %d not strictly ascending", q.Lo, q.Hi, keys[i-1], k)
		}
	}
	if q.Kind == workload.ReqRangeScan && count != uint64(len(keys)) {
		return fmt.Errorf("range [%d,%d): count %d for %d keys", q.Lo, q.Hi, count, len(keys))
	}
	if count > uint64(q.Hi-q.Lo) {
		return fmt.Errorf("range [%d,%d): count %d exceeds the span", q.Lo, q.Hi, count)
	}
	return nil
}

// loopResult is what one timed loop measured.
type loopResult struct {
	lat, late dist
	samples   uint64 // latencies observed in the window (before subsampling)
	ops       uint64 // key operations completed inside the window
	window    time.Duration
	// allocBytes is the Go heap allocated from the loop's start to its
	// last request, excluding the loop's own sample buffers and merging.
	allocBytes uint64
	// subs splits the window into equal slices, each with its own
	// latencies and throughput (one slice covering the window when the
	// loop does not split it).
	subs  []slice
	tally tally
}

type slice struct {
	lat dist
	ops uint64
	len time.Duration
}

func (l *loopResult) opsPerSec() float64 { return float64(l.ops) / l.window.Seconds() }

// summary reports throughput, median latency and the tail percentile (at
// p99, or lower by the percentile rule) as the median over the window's
// slices, so a burst of interference from outside the benchmark moves one
// slice rather than the result. q is the median slice's tail quantile.
func (l *loopResult) summary() (opsPerSec, p50, p99, q float64) {
	var rates, p50s, p99s, qs []float64
	for _, s := range l.subs {
		rates = append(rates, float64(s.ops)/s.len.Seconds())
		p50s = append(p50s, s.lat.median())
		v, sq := s.lat.tail(0.99)
		p99s, qs = append(p99s, v), append(qs, sq)
	}
	return median(rates), median(p50s), median(p99s), median(qs)
}

// nSlices is how many equal slices the closed loop splits its window into.
const nSlices = 10

// closedLoop runs each client's pool cyclically through store.DoInto: a
// client sends its next request only when the previous one returned.
// Requests in the warm-up are checked and tallied but not timed; a timed
// request counts in the slice of the window it completed in. tr, when
// non-nil, records one span per timed request.
func closedLoop(st *store.Store, pools [][]request, warm, window time.Duration, tr *tracer) loopResult {
	var wg sync.WaitGroup
	sliceLen := window / nSlices
	lats := make([][nSlices]*samples, len(pools))
	ops := make([][nSlices]uint64, len(pools))
	tallies := make([]tally, len(pools))
	begin := make(chan struct{})
	var t0 time.Time
	for c := range pools {
		for k := range lats[c] {
			lats[c][k] = newSamples(1 << 17)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pool, lat, t := pools[c], &lats[c], &tallies[c]
			res := make([]store.Result, batchSize)
			var n [nSlices]uint64
			defer func() { ops[c] = n }()
			<-begin
			timed, end := t0.Add(warm), t0.Add(warm+window)
			for i := 0; ; i++ {
				r := &pool[i%len(pool)]
				start := time.Now()
				if !start.Before(end) {
					return
				}
				t.attempted++
				t.units += uint64(r.units)
				ok := false
				if err := st.DoInto(r.ops, res); err != nil {
					t.fail(err)
				} else {
					ok = t.point(r.ops, res[:len(r.ops)])
				}
				done := time.Now()
				if ok && !start.Before(timed) && done.Before(end) {
					k := done.Sub(timed) / sliceLen
					lat[k].add(done.Sub(start))
					n[k] += uint64(r.units)
					tr.span(c, r.units, start, done)
				}
			}
		}(c)
	}
	heap := startHeap()
	t0 = time.Now()
	close(begin)
	wg.Wait()
	out := loopResult{window: window, allocBytes: heap()}
	var all []*samples
	for k := 0; k < nSlices; k++ {
		var sets []*samples
		sl := slice{len: sliceLen}
		for c := range pools {
			sets = append(sets, lats[c][k])
			sl.ops += ops[c][k]
			out.samples += lats[c][k].seen
		}
		sl.lat = merge(sets...)
		out.subs = append(out.subs, sl)
		out.ops += sl.ops
		all = append(all, sets...)
	}
	out.lat = merge(all...)
	for c := range pools {
		out.tally.add(tallies[c])
	}
	return out
}

// doFunc is the open loop's entry point (resil.Client.Do in the benchmark).
type doFunc func(workload.Req) (*exec.Result, error)

// openLoop sends the pools' requests on a fixed schedule at rate requests
// per second whether or not earlier requests have returned: independent
// users. Request i is due at t0 + i/rate; client goroutine i%2 sends it at
// that time on a goroutine of its own (at most inflight per client), so
// a slow request does not hold back the ones due after it. Each latency is
// timed from the request's due time, so a stall inflates the latency of
// every request queued behind it, including the wait for one of the
// client's inflight slots. late records how far behind its schedule each
// request was sent. Every request due inside the window is sent; one that
// cannot be sent within drainGrace after the window closes counts as
// failed.
func openLoop(do doFunc, pools [][]request, rate float64, inflight int, warm, window time.Duration, tr *tracer) loopResult {
	interval := time.Duration(float64(time.Second) / rate)
	type client struct {
		mu        sync.Mutex
		lat, late *samples
		t         tally
		ops       uint64
		last      time.Time
	}
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	begin := make(chan struct{})
	var t0 time.Time
	for c := range cs {
		cs[c] = &client{lat: newSamples(1 << 20), late: newSamples(1 << 20)}
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			slots := make(chan struct{}, inflight)
			var running sync.WaitGroup
			defer running.Wait()
			<-begin
			timed, end := t0.Add(warm), t0.Add(warm+window)
			pool := pools[c]
			for j := 0; ; j++ {
				i := int64(j*clients + c)
				due := t0.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				r := &pool[j%len(pool)]
				waitUntil(due)
				slots <- struct{}{}
				now := time.Now()
				cl.mu.Lock()
				cl.t.attempted++
				cl.t.units += uint64(r.units)
				if now.Sub(end) > drainGrace {
					cl.t.fail(fmt.Errorf("request due at +%v still unsent %v after the window closed", due.Sub(t0), drainGrace))
					cl.mu.Unlock()
					<-slots
					continue
				}
				if !due.Before(timed) {
					cl.late.add(now.Sub(due))
				}
				cl.mu.Unlock()
				running.Add(1)
				go func() {
					defer running.Done()
					res, err := do(r.req)
					done := time.Now()
					<-slots
					cl.mu.Lock()
					defer cl.mu.Unlock()
					if cl.t.result(r, res, err) && !due.Before(timed) {
						cl.lat.add(done.Sub(due))
						cl.ops += uint64(r.units)
						if done.After(cl.last) {
							cl.last = done
						}
						tr.span(c, r.units, due, done)
					}
				}()
			}
		}(c, cs[c])
	}
	heap := startHeap()
	t0 = time.Now()
	close(begin)
	wg.Wait()
	// Requests due late in the window finish after it: throughput is
	// measured up to the last completion, so a backlog lowers it.
	out := loopResult{window: window, allocBytes: heap()}
	lats, lates := make([]*samples, clients), make([]*samples, clients)
	for c, cl := range cs {
		lats[c], lates[c] = cl.lat, cl.late
		out.tally.add(cl.t)
		out.ops += cl.ops
		out.samples += cl.lat.seen
		out.window = max(out.window, cl.last.Sub(t0.Add(warm)))
	}
	out.lat, out.late = merge(lats...), merge(lates...)
	out.subs = []slice{{lat: out.lat, ops: out.ops, len: out.window}}
	return out
}

// maxInFlight bounds each open-loop client's outstanding requests; a full
// client sends late, and the lateness is charged to the requests' latency.
const maxInFlight = 64

// drainGrace bounds how long the open loop keeps sending requests that
// were due inside the window after it closes.
const drainGrace = 2 * time.Second

// startHeap collects garbage, then returns a function reporting the Go heap
// bytes allocated since.
func startHeap() func() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	return func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
}

// waitUntil returns at or after t: it sleeps while t is far and yields the
// processor while it is near, since a timer sleep overshoots by tens of
// microseconds.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 200*time.Microsecond:
			time.Sleep(d - 100*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}
