package bench

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDriveOpBudget: the op-budget mode issues exactly budget requests
// per client, in draw order — the fixed-work property EXP-BATCH's
// backlog arms rest on.
func TestDriveOpBudget(t *testing.T) {
	const clients, budget = 3, 17
	var drawn, served [clients]int
	lat, err := drive(load{clients: clients, budget: budget},
		func(c int) int { drawn[c]++; return drawn[c] },
		func(c, req int) (time.Duration, error) {
			served[c]++
			if req != served[c] {
				t.Errorf("client %d served request %d out of order (want %d)", c, req, served[c])
			}
			return time.Microsecond, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		if drawn[c] != budget || served[c] != budget {
			t.Errorf("client %d: drew %d, served %d, want %d", c, drawn[c], served[c], budget)
		}
	}
	if got := lat.Count(); got != clients*budget {
		t.Errorf("latency samples %d, want %d", got, clients*budget)
	}
}

// TestDrivePacedKeepsSchedule: paced open loop keeps issuing on its
// schedule while every request is slower than the pace, where a closed
// loop would issue a handful; drive still waits for every in-flight
// request before returning.
func TestDrivePacedKeepsSchedule(t *testing.T) {
	const (
		clients = 2
		pace    = 2 * time.Millisecond
		window  = 60 * time.Millisecond
		slow    = 20 * time.Millisecond
	)
	var issued, settled atomic.Int64
	start := time.Now()
	_, err := drive(load{clients: clients, deadline: start.Add(window), pace: pace},
		func(c int) struct{} { issued.Add(1); return struct{}{} },
		func(int, struct{}) (time.Duration, error) {
			time.Sleep(slow)
			settled.Add(1)
			return slow, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule offers window/pace requests per client; a closed loop
	// would manage window/slow = 3.
	if n := issued.Load(); n < clients*int64(window/pace)/2 {
		t.Errorf("paced drive issued %d requests in %s, want about %d", n, window, clients*int64(window/pace))
	}
	if settled.Load() != issued.Load() {
		t.Errorf("drive returned with %d of %d requests in flight", issued.Load()-settled.Load(), issued.Load())
	}
	if elapsed := time.Since(start); elapsed < window+slow/2 {
		t.Errorf("drive returned after %s, before its last requests could settle", elapsed)
	}
}
