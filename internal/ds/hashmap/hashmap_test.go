package hashmap_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/hashmap"
	"repro/internal/ds/registry"
	"repro/internal/mem"
)

func TestSuiteHarrisBuckets(t *testing.T)  { dstest.RunSetSuite(t, "hashmap-harris") }
func TestSuiteMichaelBuckets(t *testing.T) { dstest.RunSetSuite(t, "hashmap-michael") }

// TestBucketKind rejects unknown bucket kinds.
func TestBucketKind(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, 2, mem.Reuse)
	if _, err := hashmap.New(env.S, ds.Options{}, "btree"); err == nil {
		t.Fatal("expected error for unknown bucket kind")
	}
}

// TestKeysUnion checks Keys() aggregates every bucket.
func TestKeysUnion(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<12, 2, mem.Reuse)
	m, err := hashmap.New(env.S, ds.Options{}, "michael")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		if ok, err := m.Insert(0, k); err != nil || !ok {
			t.Fatalf("insert(%d) = %v, %v", k, ok, err)
		}
	}
	if got := len(m.Keys()); got != 100 {
		t.Fatalf("Keys() returned %d keys, want 100", got)
	}
	env.AssertSafe(t)
}

// The conformance suite again over sized maps: a key-space hint of 1024
// keys gives 256 buckets ending in one shared tail, under every scheme
// registry.Applicable allows for each bucket kind.
func TestSuiteSizedHarrisBuckets(t *testing.T) {
	dstest.RunSetSuiteOpts(t, "hashmap-harris", ds.Options{Keys: 1024})
}

func TestSuiteSizedMichaelBuckets(t *testing.T) {
	dstest.RunSetSuiteOpts(t, "hashmap-michael", ds.Options{Keys: 1024})
}

// TestBucketsRule pins the sizing rule: the largest power of two <=
// keys/4, at least MinBuckets, at most slots/8.
func TestBucketsRule(t *testing.T) {
	for _, c := range []struct{ keys, slots, want int }{
		{0, 1 << 16, hashmap.MinBuckets},    // no hint
		{63, 1 << 16, hashmap.MinBuckets},   // floor
		{1024, 1 << 16, 256},                // ~2 keys per bucket half full
		{16384, 2*16384 + 4096 + 128, 4096}, // a store shard of 65536 keys over 4 shards
		{683, 1 << 18, 128},                 // big heap, small key space: the hint decides
		{1 << 20, 1000, 64},                 // heap cap: 1000/8 = 125
		{1 << 20, 64, hashmap.MinBuckets},   // the floor wins over the cap
		{100000, 1 << 20, 16384},            // non-power-of-two hint rounds down
	} {
		if got := hashmap.Buckets(c.keys, c.slots); got != c.want {
			t.Errorf("Buckets(%d, %d) = %d, want %d", c.keys, c.slots, got, c.want)
		}
	}
}

// TestHintlessRegistryMap keeps the hint-less registry build at 16
// buckets (the applicability matrix, dstest and the adversary sweeps
// build it that way), sizes a hinted one, and checks the shared tail:
// a map costs buckets+1 sentinel slots.
func TestHintlessRegistryMap(t *testing.T) {
	for _, name := range []string{"hashmap-harris", "hashmap-michael"} {
		for _, c := range []struct{ keys, want int }{{0, 16}, {4096, 1024}} {
			env := dstest.NewEnv(t, "ebr", 1, 1<<16, 2, mem.Reuse)
			set, err := registry.MustGet(name).NewSet(env.S, ds.Options{Keys: c.keys})
			if err != nil {
				t.Fatal(err)
			}
			if got := set.(*hashmap.Map).Buckets(); got != c.want {
				t.Errorf("%s keys=%d: %d buckets, want %d", name, c.keys, got, c.want)
			}
			if got := env.A.Stats().Allocs(); got != uint64(c.want+1) {
				t.Errorf("%s keys=%d: %d sentinel allocs, want %d", name, c.keys, got, c.want+1)
			}
		}
	}
}
