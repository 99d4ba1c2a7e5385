package store_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestShardHashmapSizedToKeySpace checks that each shard's hash map is
// sized to its slice of the key range: over 4 shards and KeyRange 65536
// a half-full hp×hashmap shard serves a uniform mix in a handful of
// traversal steps per op (the fixed 16-bucket map walked ~260). The
// sizing must survive MigrateShard and ReopenShard, which rebuild the
// shard from the same config.
func TestShardHashmapSizedToKeySpace(t *testing.T) {
	const keyRange, shard, maxSteps = 65536, 1, 8
	st, err := store.New(store.Config{
		Shards:   store.Uniform(4, store.ShardSpec{Scheme: "hp", Structure: "hashmap"}),
		KeyRange: keyRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := keysOn(st, shard, keyRange, keyRange)
	res := make([]store.Result, 256)
	do := func(ops []store.Op) {
		t.Helper()
		if err := st.DoInto(ops, res[:len(ops)]); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			if res[i].Err != nil {
				t.Fatalf("key %d: %v", ops[i].Key, res[i].Err)
			}
		}
	}
	fill := func() {
		var ops []store.Op
		for i := 0; i < len(keys); i += 2 {
			if ops = append(ops, store.Op{Kind: workload.OpInsert, Key: keys[i]}); len(ops) == len(res) {
				do(ops)
				ops = ops[:0]
			}
		}
		do(ops)
	}
	check := func(phase string) {
		t.Helper()
		before := st.Stats().Shards[shard]
		rng := workload.RNG(11)
		ops := make([]store.Op, 16)
		for b := 0; b < 500; b++ {
			for i := range ops {
				ops[i] = store.Op{Kind: workload.Op(rng.Next() % 3), Key: keys[rng.Next()%uint64(len(keys))]}
			}
			do(ops)
		}
		after := st.Stats().Shards[shard]
		perOp := float64(after.TravSteps-before.TravSteps) / float64(after.Ops-before.Ops)
		t.Logf("%s: %.2f traversal steps per op", phase, perOp)
		if perOp > maxSteps {
			t.Errorf("%s: %.2f traversal steps per op, want <= %d", phase, perOp, maxSteps)
		}
	}
	fill()
	check("built")
	if err := st.MigrateShard(shard, "ebr"); err != nil {
		t.Fatal(err)
	}
	check("migrated")
	if err := st.CloseShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := st.ReopenShard(shard); err != nil {
		t.Fatal(err)
	}
	fill()
	check("reopened")
}

// TestDoIntoWritesAllocFree checks that steady-state DoInto of inserts
// and deletes on hp×hashmap allocates nothing: Reserve takes a fixed-size
// array rather than a variadic slice that escapes through the interface
// call, and HP's scan reuses a per-thread sorted hazard snapshot.
func TestDoIntoWritesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const keyRange = 4096
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "hp", Structure: "hashmap"}),
		KeyRange: keyRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := workload.RNG(9)
	ins, del := make([]store.Op, 64), make([]store.Op, 64)
	for i := range ins {
		k := int64(rng.Next() % keyRange)
		ins[i] = store.Op{Kind: workload.OpInsert, Key: k}
		del[i] = store.Op{Kind: workload.OpDelete, Key: k}
	}
	res := make([]store.Result, len(ins))
	round := func() {
		for _, ops := range [][]store.Op{ins, del} {
			if err := st.DoInto(ops, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the request pools, retire lists and scan scratch past growth.
	for i := 0; i < 256; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state insert/delete DoInto: %v allocs per round, want 0", n)
	}
	// Thousands of deletes retired nodes; a backlog this small means HP
	// scans ran (and reclaimed) inside the measured rounds' steady state.
	if s := st.Stats(); s.Errs != 0 || s.Retired >= 1024 {
		t.Fatalf("errs %d, retired backlog %d: want no errors and a scanned backlog", s.Errs, s.Retired)
	}
}
