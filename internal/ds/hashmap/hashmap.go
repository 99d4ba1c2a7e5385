// Package hashmap implements a lock-free hash set: a power-of-two array
// of buckets, each an independent Harris or Michael linked-list, sized at
// build time to the key space it will hold (Michael, SPAA 2002, assumes a
// table sized to its load). The bucket count is fixed once built.
//
// The map exists for workload realism in the throughput experiments
// (short chains, high locality, the setting the cited schemes were
// evaluated in) and to show that applicability verdicts transfer
// compositionally: a bucket built on Harris's list inherits Harris's
// incompatibility with the protection-based schemes, a bucket built on
// Michael's list does not.
package hashmap

import (
	"fmt"
	"math/bits"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/michael"
	"repro/internal/smr"
)

// MinBuckets is the bucket count of a map built without a key-space hint
// (ds.Options.Keys == 0) and the floor of a sized one.
const MinBuckets = 16

// Map is a lock-free hash set with a power-of-two bucket count.
type Map struct {
	name    string
	s       smr.Scheme
	shift   uint // 64 - log2(len(buckets)): the hash's top bits index a bucket
	buckets []ds.Set
}

var _ ds.Set = (*Map)(nil)

// Buckets returns the bucket count New picks: the largest power of two
// <= keys/4, at least MinBuckets. A mixed insert/delete load keeps a set
// about half full, so that is ~2 keys per bucket chain. The count is
// also capped at slots/8 (slots is the heap size): sentinels never take
// more than an eighth of the heap, so every heap that hosted the
// hint-less 16 buckets hosts a sized map too.
func Buckets(keys, slots int) int {
	n := MinBuckets
	for 2*n <= keys/4 && 2*n <= slots/8 {
		n *= 2
	}
	return n
}

// New builds a hash set over scheme s with Buckets(opt.Keys, heap slots)
// buckets. kind selects the bucket implementation: "harris" or
// "michael". All buckets end in one shared tail sentinel, so the map
// costs buckets+1 sentinel slots.
func New(s smr.Scheme, opt ds.Options, kind string) (*Map, error) {
	if kind != "harris" && kind != "michael" {
		return nil, fmt.Errorf("hashmap: unknown bucket kind %q", kind)
	}
	tail, err := ds.NewSentinel(s, 0, ds.KeyMax)
	if err != nil {
		return nil, err
	}
	log := bits.Len(uint(Buckets(opt.Keys, s.Heap().Config().Slots))) - 1
	m := &Map{name: "hashmap-" + kind, s: s, shift: uint(64 - log), buckets: make([]ds.Set, 1<<log)}
	for i := range m.buckets {
		if kind == "harris" {
			m.buckets[i], err = harris.NewOver(s, opt, tail)
		} else {
			m.buckets[i], err = michael.NewOver(s, opt, tail)
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Name implements ds.Set.
func (m *Map) Name() string { return m.name }

// Buckets reports the map's bucket count.
func (m *Map) Buckets() int { return len(m.buckets) }

// index hashes key to a bucket index by Fibonacci hashing: the top
// log2(buckets) bits of key × 2^64/φ. Taking the product modulo a power
// of two instead would keep only the key's low bits, piling every key of
// a stride-16 run into one bucket.
func (m *Map) index(key int64) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> m.shift)
}

// bucket returns key's bucket.
func (m *Map) bucket(key int64) ds.Set { return m.buckets[m.index(key)] }

// Insert implements ds.Set.
func (m *Map) Insert(tid int, key int64) (bool, error) { return m.bucket(key).Insert(tid, key) }

// Delete implements ds.Set.
func (m *Map) Delete(tid int, key int64) (bool, error) { return m.bucket(key).Delete(tid, key) }

// Contains implements ds.Set.
func (m *Map) Contains(tid int, key int64) (bool, error) { return m.bucket(key).Contains(tid, key) }

var (
	_ ds.Iterator     = (*Map)(nil)
	_ ds.TravReporter = (*Map)(nil)
	_ ds.BatchSet     = (*Map)(nil)
	_ ds.StepSet      = (*Map)(nil)
)

// StepOp implements ds.StepSet by delegating to the target bucket's
// unbracketed op — all buckets share the map's single SMR domain, so a
// caller-held bracket covers whichever bucket the key routes to.
func (m *Map) StepOp(tid int, kind ds.BatchKind, key int64) (bool, error) {
	b, ok := m.bucket(key).(ds.StepSet)
	if !ok {
		return false, ds.ErrCorrupted // unreachable: both bucket kinds implement StepSet
	}
	return b.StepOp(tid, kind, key)
}

// ApplyBatch implements ds.BatchSet: one fused window over the shared
// scheme, stepping each op into its bucket. Cross-op predecessor
// caching does not apply (consecutive sorted keys usually hash to
// different buckets), so the win here is bracket amortization over
// short chains.
func (m *Map) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	return ds.RunBatch(m.s, m, tid, ops, res)
}

// Iterate implements ds.Iterator by sweeping the buckets in index order.
// Emission is monotonic per bucket rather than globally ascending; since a
// key hashes to exactly one bucket, the no-duplicates and
// every-persistent-key guarantees still hold map-wide.
func (m *Map) Iterate(tid int, fn func(key int64) bool) error {
	stopped := false
	for _, b := range m.buckets {
		it, ok := b.(ds.Iterator)
		if !ok {
			return ds.ErrCorrupted // unreachable: both bucket kinds implement Iterator
		}
		err := it.Iterate(tid, func(k int64) bool {
			if !fn(k) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// TravSnapshot implements ds.TravReporter by merging the buckets'
// traversal counters.
func (m *Map) TravSnapshot() ds.TravSnapshot {
	var s ds.TravSnapshot
	for _, b := range m.buckets {
		if tr, ok := b.(ds.TravReporter); ok {
			s = s.Merge(tr.TravSnapshot())
		}
	}
	return s
}

// Keys returns all unmarked keys; quiescent use only.
func (m *Map) Keys() []int64 {
	var keys []int64
	for _, b := range m.buckets {
		switch l := b.(type) {
		case *harris.List:
			keys = append(keys, l.Keys()...)
		case *michael.List:
			keys = append(keys, l.Keys()...)
		}
	}
	return keys
}
