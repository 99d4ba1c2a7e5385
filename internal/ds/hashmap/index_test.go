package hashmap

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/ebr"
)

// TestStrideSpreads checks the bucket index uses the hash's high bits:
// keys in a stride of 16 must spread over at least three quarters of the
// buckets. Indexing by the product modulo a power of two would keep only
// the key's low bits and pile them into 1/16 of the buckets.
func TestStrideSpreads(t *testing.T) {
	a := mem.NewArena(mem.Config{Slots: 1 << 12, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 1, Mode: mem.Reuse})
	m, err := New(ebr.New(a, 1, 0), ds.Options{Keys: 1024}, "michael")
	if err != nil {
		t.Fatal(err)
	}
	n := m.Buckets()
	used := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		used[m.index(int64(16*i))] = true
	}
	if len(used) < 3*n/4 {
		t.Fatalf("%d keys in a stride of 16 hit %d of %d buckets, want >= %d", n, len(used), n, 3*n/4)
	}
}
