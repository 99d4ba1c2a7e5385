package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/hist"
	"repro/internal/store"
	"repro/internal/workload"
)

// load shapes one drive: how many clients, when they stop, and whether
// they run closed or paced open loop.
type load struct {
	clients int
	// budget, when positive, is each client's request count — fixed
	// work, so two arms compared under it served the same volume.
	budget int
	// deadline, when non-zero, and stop, when non-nil, end the run.
	deadline time.Time
	stop     <-chan struct{}
	// pace, when positive, switches to open loop: each client issues one
	// request per pace tick, each served on its own goroutine, so a slow
	// request cannot slow the offered schedule.
	pace time.Duration
}

// drive is the one client driver every experiment runs its traffic
// through. draw builds client c's next request on c's own goroutine (so
// per-client streams stay single-threaded and deterministic); serve
// executes it — inline in closed loop, on a fresh goroutine per tick in
// open loop — and returns the latency to record (zero records nothing)
// or an error that stops client c. In open loop, drive returns only
// after every in-flight request settled. It returns the clients' merged
// latency histogram and the first error.
func drive[R any](l load, draw func(c int) R, serve func(c int, req R) (time.Duration, error)) (hist.Latency, error) {
	type client struct {
		mu  sync.Mutex
		lat hist.Latency
		err error
	}
	cs := make([]client, l.clients)
	var wg, inflight sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &cs[c]
			settle := func(req R) {
				d, err := serve(c, req)
				cl.mu.Lock()
				defer cl.mu.Unlock()
				if err != nil && cl.err == nil {
					cl.err = err
				} else if err == nil && d > 0 {
					cl.lat.Record(d)
				}
			}
			next := time.Now()
			for i := 0; l.budget <= 0 || i < l.budget; i++ {
				if !l.deadline.IsZero() && !time.Now().Before(l.deadline) {
					return
				}
				select {
				case <-l.stop: // a nil stop never fires
					return
				default:
				}
				cl.mu.Lock()
				failed := cl.err != nil
				cl.mu.Unlock()
				if failed {
					return
				}
				req := draw(c)
				if l.pace <= 0 {
					settle(req)
					continue
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(l.pace)
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					settle(req)
				}()
			}
		}(c)
	}
	wg.Wait()
	inflight.Wait()
	var lat hist.Latency
	var first error
	for c := range cs {
		lat.Merge(&cs[c].lat)
		if first == nil {
			first = cs[c].err
		}
	}
	return lat, first
}

// storeClients drives closed-loop clients that batch point operations
// from a workload source into store.Do — the traffic of every
// store-level experiment.
type storeClients struct {
	st      *store.Store
	src     *workload.Source
	clients int
	batch   int
	// ops, when positive, is each client's operation budget (fixed work,
	// the last request truncated to fit); otherwise deadline ends the run.
	ops      int
	deadline time.Time
	// strict fails the run on the first per-op error (op-boxed runs,
	// where one is a harness failure). Otherwise per-op errors are
	// counted: they are what faults — and migration swap windows — look
	// like from outside.
	strict bool
	// observe, when non-nil, sees every request latency live (the SLO
	// monitor's feed); it is called from every client concurrently.
	observe func(time.Duration)
}

// storeTally is what a drive of store clients measured.
type storeTally struct {
	ops, errs uint64
	lat       hist.Latency
}

func (sc storeClients) run() (storeTally, error) {
	total := sc.ops
	budget := (sc.ops + sc.batch - 1) / sc.batch
	if sc.ops <= 0 {
		total, budget = 1<<20, 0
	}
	type client struct {
		stream    *workload.Stream
		batch     []store.Op
		left      int
		ops, errs uint64
	}
	cs := make([]client, sc.clients)
	for c := range cs {
		cs[c] = client{stream: sc.src.Thread(c, total), batch: make([]store.Op, 0, sc.batch), left: total}
	}
	lat, err := drive(load{clients: sc.clients, budget: budget, deadline: sc.deadline},
		func(c int) []store.Op {
			cl := &cs[c]
			cl.batch = cl.batch[:0]
			for len(cl.batch) < sc.batch && len(cl.batch) < cl.left {
				kind, key := cl.stream.Next()
				cl.batch = append(cl.batch, store.Op{Kind: kind, Key: key})
			}
			if sc.ops > 0 {
				cl.left -= len(cl.batch)
			}
			return cl.batch
		},
		func(c int, batch []store.Op) (time.Duration, error) {
			t0 := time.Now()
			res, err := sc.st.Do(batch)
			if err != nil {
				// Store-level failure (closed store): a harness bug, not a
				// fault outcome.
				return 0, err
			}
			d := time.Since(t0)
			if sc.observe != nil {
				sc.observe(d)
			}
			cl := &cs[c]
			cl.ops += uint64(len(batch))
			for i, r := range res {
				if r.Err == nil {
					continue
				}
				if sc.strict {
					return 0, fmt.Errorf("%v(%d): %w", batch[i].Kind, batch[i].Key, r.Err)
				}
				cl.errs++
			}
			return d, nil
		})
	t := storeTally{lat: lat}
	for c := range cs {
		t.ops += cs[c].ops
		t.errs += cs[c].errs
	}
	return t, err
}

// bestOfPairs is the paired A/B every wall-clock gate measures with: one
// discarded warm-up round (the first round pays for cold caches and
// allocator growth, a systematic penalty for whichever arm drew it),
// then rounds pairs of arm(false) and arm(true), alternating which goes
// first (the process keeps warming as rounds run, so a fixed order
// would donate the warm-up to whichever arm always ran second), a GC
// before each round. Interference on a shared box only ever subtracts
// throughput, so each arm's best-scoring round (higher is better) is the
// least-noise estimate of its true rate; a median would let one
// descheduled round swing the comparison. arm's round index lets it vary
// its seed.
func bestOfPairs[T any](rounds int, arm func(b bool, round int) (T, float64, error)) (a, b T, err error) {
	if _, _, err := arm(true, rounds); err != nil {
		return a, b, err
	}
	bestA, bestB := -1.0, -1.0
	for i := 0; i < rounds; i++ {
		for _, isB := range []bool{i%2 == 1, i%2 == 0} {
			runtime.GC()
			r, score, err := arm(isB, i)
			if err != nil {
				return a, b, err
			}
			if isB && score > bestB {
				b, bestB = r, score
			} else if !isB && score > bestA {
				a, bestA = r, score
			}
		}
	}
	return a, b, nil
}
