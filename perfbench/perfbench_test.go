package main

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/workload"
)

func ascending(n int) dist {
	d := make(dist, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	return d
}

// TestPercentileRule: a percentile is reported only with at least ten
// samples beyond it; otherwise the highest percentile that has ten is.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		q       float64
		want    float64
		wantQ   float64
		beyond  int
		comment string
	}{
		{1000, 0.99, 990, 0.99, 10, "p99 has exactly ten beyond"},
		{2000, 0.99, 1980, 0.99, 20, "p99 has more than ten beyond"},
		{500, 0.99, 490, 0.98, 10, "p99 has five beyond: fall back to p98"},
		{11, 0.5, 1, 1.0 / 11, 10, "median of eleven samples leaves ten beyond"},
		{2000, 1, 1990, 0.995, 10, "highest: ten beyond"},
	} {
		d := ascending(c.n)
		v, q := d.tail(c.q)
		if v != c.want || q != c.wantQ {
			t.Errorf("%s: n=%d tail(%g) = %g at q=%g, want %g at q=%g", c.comment, c.n, c.q, v, q, c.want, c.wantQ)
		}
		if beyond := c.n - int(v); beyond != c.beyond {
			t.Errorf("%s: %d samples beyond, want %d", c.comment, beyond, c.beyond)
		}
	}
	if v, q := ascending(10).tail(0.99); q != 0 || v != 10 {
		t.Errorf("ten samples: got %g at q=%g, want the maximum with q=0 (no percentile qualifies)", v, q)
	}
	if m := ascending(101).median(); m != 51 {
		t.Errorf("median of 1..101 = %g, want 51", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", m)
	}
}

// TestSamplesDecimation: a full buffer keeps an even subsample of every
// latency added, without growing.
func TestSamplesDecimation(t *testing.T) {
	s := newSamples(8)
	for i := 1; i <= 100; i++ {
		s.add(time.Duration(i))
	}
	if cap(s.v) != 8 || s.seen != 100 {
		t.Fatalf("cap %d seen %d, want 8 and 100", cap(s.v), s.seen)
	}
	for i, v := range s.v {
		if want := uint32((i + 1) * int(s.stride)); v != want {
			t.Fatalf("sample %d = %d, want %d (stride %d): %v", i, v, want, s.stride, s.v)
		}
	}
}

// TestOpenLoopChargesStallToQueuedRequests: one request stalls while its
// client may have only one request in flight, so the client's following
// requests go out late. Latency is timed from the due time, so they carry
// the stall; timed from the send they would look fast.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate  = 1000 // one request per millisecond
		stall = 100 * time.Millisecond
	)
	pools := make([][]request, clients)
	for c := range pools {
		pools[c] = make([]request, 1000)
		for i := range pools[c] {
			q := workload.Req{Kind: workload.ReqMultiGet, Keys: []int64{int64(i)}}
			pools[c][i] = toRequest(q)
		}
	}
	var calls atomic.Int64
	do := func(q workload.Req) (*exec.Result, error) {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return &exec.Result{Kind: q.Kind, Results: make([]store.Result, len(q.Keys))}, nil
	}
	res := openLoop(do, pools, rate, 1, 0, 400*time.Millisecond, nil)
	if res.tally.failed != 0 {
		t.Fatalf("%d failed: %v", res.tally.failed, res.tally.firstErr)
	}
	late, _ := res.late.highest()
	if late < float64(stall/2) {
		t.Fatalf("highest lateness %v, want the stalled client to fall about %v behind", time.Duration(late), stall)
	}
	// The stalled client's requests due during the stall (one every 2ms)
	// each wait for it: about stall/2ms of them wait at least half of it.
	slow := 0
	for _, v := range res.lat {
		if v >= float64(stall/2) {
			slow++
		}
	}
	if slow < 20 {
		t.Fatalf("%d requests took >= %v from their due time, want >= 20 queued behind the stall", slow, stall/2)
	}
}

// TestConservationCatchesLostInsert: an insert the store acknowledged but
// that is then lost (deleted behind the tally's back) breaks conservation.
func TestConservationCatchesLostInsert(t *testing.T) {
	w := &spec{scheme: "ebr", structure: "hashmap", shards: 2, keyRange: 256}
	st, err := newStore(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prefilled, err := prefill(st, []int64{1, 2, 3, 4})
	if err != nil || prefilled != 4 {
		t.Fatalf("prefill: %d, %v", prefilled, err)
	}
	var tl tally
	ops := []store.Op{{Kind: workload.OpInsert, Key: 10}, {Kind: workload.OpInsert, Key: 11}, {Kind: workload.OpDelete, Key: 1}}
	res := make([]store.Result, len(ops))
	if err := st.DoInto(ops, res); err != nil || !tl.point(ops, res) {
		t.Fatalf("DoInto: %v %v", err, tl.firstErr)
	}
	var g gate
	if err := g.check("honest", st, w.keyRange, prefilled, tl); err != nil || !g.ok() {
		t.Fatalf("honest run flagged: %v %v", err, g.violations)
	}
	if ok, err := st.Delete(10); !ok || err != nil {
		t.Fatalf("fabricating the lost insert: %v %v", ok, err)
	}
	if err := g.check("lost insert", st, w.keyRange, prefilled, tl); err != nil {
		t.Fatal(err)
	}
	if g.ok() || !strings.Contains(g.violations[0], "not conserved") {
		t.Fatalf("lost insert not caught: %v", g.violations)
	}
}

// TestCheckRange: range results must be strictly ascending inside [Lo, Hi).
func TestCheckRange(t *testing.T) {
	q := workload.Req{Kind: workload.ReqRangeScan, Lo: 10, Hi: 20}
	for _, c := range []struct {
		keys []int64
		ok   bool
	}{
		{[]int64{10, 12, 19}, true},
		{[]int64{10, 10}, false},
		{[]int64{12, 11}, false},
		{[]int64{9}, false},
		{[]int64{20}, false},
	} {
		if err := checkRange(q, c.keys, uint64(len(c.keys))); (err == nil) != c.ok {
			t.Errorf("%v: err %v, want ok=%v", c.keys, err, c.ok)
		}
	}
}
