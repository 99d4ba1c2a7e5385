// Package skiplist implements a lock-free skip list set in the style of
// Fraser and Herlihy & Shavit (The Art of Multiprocessor Programming,
// chapter 14.4), expressed over the smr.Scheme barrier interface.
//
// The skip list matters to the paper's Section 5.1 discussion: the number
// of hazard pointers a traversal must hold is not a structure-independent
// constant — it grows with the tower height, i.e. with the logarithm of the
// data-structure size. This package keeps the height fixed (MaxHeight) so
// per-pointer schemes have a well-defined slot budget, but the protection
// rotation per level is still visible in the ReadPtr idx discipline.
//
// retire() placement: the thread whose CAS marks level 0 of a victim owns
// the deletion; it re-runs find, which physically snips the victim from
// every level it is still linked at, and only then retires it — nodes are
// always unreachable before they are retired (Section 4.1 of the paper).
package skiplist

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// MaxHeight is the fixed tower-height cap. 12 levels comfortably cover the
// heap sizes the experiments use (2^12 expected nodes per top-level link).
const MaxHeight = 12

// Node payload layout: word 0 key, word 1 tower height plus the
// retirement handshake bits, words 2..2+h-1 the per-level next
// references (level 0 at WLevel0).
const (
	WHeight = 1
	WLevel0 = 2
	// PayloadWords is the arena payload size this structure requires.
	PayloadWords = WLevel0 + MaxHeight
)

// The WHeight word's retirement handshake. An inserter may still be
// linking a node's upper levels when a deleter has marked it and snipped
// it, so the inserter can link a level behind the deleter's back. Each
// side sets its bit when done — the inserter after its last link, the
// deleter after its snip — and whichever sets its bit second retires the
// node, the inserter after one more snipping find. A node is thus never
// retired while a link to it can still appear.
const (
	heightMask = 0xff
	linkDone   = 1 << 8
	unlinkDone = 1 << 9
)

// List is the lock-free skip list set.
type List struct {
	ds.Instr
	s          smr.Scheme
	head, tail mem.Ref
}

var _ ds.Set = (*List)(nil)

// New builds an empty skip list over scheme s. Sentinels are full-height.
func New(s smr.Scheme, opt ds.Options) (*List, error) {
	if s.Heap().Config().PayloadWords < PayloadWords {
		return nil, ds.ErrCorrupted
	}
	l := &List{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	links := make([]int, MaxHeight)
	for i := range links {
		links[i] = WLevel0 + i
	}
	ds.RegisterLinks(s, links)
	var err error
	if l.tail, err = ds.NewSentinel(s, 0, ds.KeyMax); err != nil {
		return nil, err
	}
	if !s.Write(0, l.tail, WHeight, MaxHeight) {
		return nil, ds.ErrCorrupted
	}
	if l.head, err = ds.NewSentinel(s, 0, ds.KeyMin); err != nil {
		return nil, err
	}
	if !s.Write(0, l.head, WHeight, MaxHeight) {
		return nil, ds.ErrCorrupted
	}
	for lv := 0; lv < MaxHeight; lv++ {
		if !s.WritePtr(0, l.head, WLevel0+lv, l.tail) {
			return nil, ds.ErrCorrupted
		}
	}
	return l, nil
}

// Name implements ds.Set.
func (l *List) Name() string { return "skiplist" }

// Head returns the head sentinel.
func (l *List) Head() mem.Ref { return l.head }

const maxSteps = 1 << 22

// iterBatch bounds how many keys one Iterate operation bracket emits.
const iterBatch = 512

type status uint8

const (
	stOK status = iota
	stRestart
	// stCorrupt variants name the detection site for diagnostics.
	stCorruptRetry // outer retry loop exceeded maxSteps
	stCorruptWalk  // a level walk exceeded maxSteps (cycle)
	stCorruptNil   // a level edge dereferenced to nil
)

func corrupt(st status) bool { return st >= stCorruptRetry }

// corruptErr maps a corrupt status to its error: the step-budget variants
// are typed, counted guard trips (the structure declaring it cannot make
// progress), a nil edge is detected corruption.
func (l *List) corruptErr(op string, st status, steps, restarts uint64) error {
	switch st {
	case stCorruptRetry, stCorruptWalk:
		return l.GuardTrip("skiplist", op, steps, restarts)
	}
	return fmt.Errorf("%w: nil level edge", ds.ErrCorrupted)
}

// randomHeight draws a geometric tower height from a key-and-thread seeded
// xorshift, so runs are reproducible without a global RNG.
func randomHeight(tid int, key int64) int {
	x := uint64(key)*0x9e3779b97f4a7c15 + uint64(tid)*0xbf58476d1ce4e5b9 + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= 1
	}
	return h
}

// find locates the window for key on every level: preds[l] is the last
// node with key < key at level l, succs[l] the first with key >= key.
// Marked nodes encountered on the way are physically snipped (this is the
// only place unlinking happens). found reports an unmarked level-0 match.
// maxNilRetries bounds restarts on a momentarily-nil level edge. The
// simulated wide CAS undoes stale link installs after the fact (see
// DESIGN.md, limitation 5); a reader can glimpse the in-flight state as a
// nil edge. Such glimpses are transient — a bounded number of restarts
// absorbs them, and persistence still escalates to detected corruption.
const maxNilRetries = 1 << 14

// Restart policy (the bounded-restart overhaul): losing a snip CAS no
// longer redescends the whole tower from the head — the walk re-reads
// pred's edge at the contended level and, when pred is still unmarked
// there, resumes the level walk from pred. Rollbacks and nil glimpses
// still rewind completely.
func (l *List) find(tid int, key int64, preds, succs *[MaxHeight]mem.Ref) (found bool, st status, steps, restarts uint64) {
	var headRestarts uint64
	defer func() { l.Trav.Record(steps, restarts, headRestarts) }()
	nilRetries := 0
retry:
	for retries := 0; ; retries++ {
		if retries > 0 {
			restarts++
			headRestarts++
		}
		if retries > maxSteps || steps > maxSteps {
			return false, stCorruptRetry, steps, restarts
		}
		pred := l.head
		// Protection slots: 0 for pred, 1 for curr, 2 for succ, rotating
		// as the traversal advances.
		for lv := MaxHeight - 1; lv >= 0; lv-- {
			curr, ok := l.s.ReadPtr(tid, 1, pred, WLevel0+lv)
			if !ok {
				return false, stRestart, steps, restarts
			}
			if lv == MaxHeight-1 {
				l.Hit(tid, ds.PointSearchHead, uint64(key))
			}
			curr = curr.WithoutMark()
		walk:
			for inner := 0; ; inner++ {
				if steps++; inner > maxSteps {
					return false, stCorruptWalk, steps, restarts
				}
				if curr.IsNil() {
					if nilRetries++; nilRetries > maxNilRetries {
						return false, stCorruptNil, steps, restarts
					}
					continue retry
				}
				succ, ok := l.s.ReadPtr(tid, 2, curr, WLevel0+lv)
				if !ok {
					return false, stRestart, steps, restarts
				}
				for succ.Marked() {
					// curr is logically deleted at this level: snip it.
					// The snip is a write: reserve its window first, so a
					// concurrent reclaimer either sees pred, curr and succ
					// reserved or neutralizes this traversal (NBR, PEBR).
					if !l.s.Reserve(tid, pred, curr, succ.WithoutMark()) {
						return false, stRestart, steps, restarts
					}
					swapped, ok := l.s.CASPtr(tid, pred, WLevel0+lv, curr, succ.WithoutMark())
					if !ok {
						return false, stRestart, steps, restarts
					}
					if !swapped {
						// Contention: pred's edge at this level moved. Re-read
						// it; if pred is still unmarked here, resume the walk
						// at this level instead of redescending from the head.
						restarts++
						if l.Opt.RestartAtHead() {
							headRestarts++
							continue retry
						}
						pn, ok := l.s.ReadPtr(tid, 1, pred, WLevel0+lv)
						if !ok {
							return false, stRestart, steps, restarts
						}
						if pn.Marked() {
							// pred itself is deleted at this level; the
							// descent that chose it is stale.
							headRestarts++
							continue retry
						}
						curr = pn.WithoutMark()
						continue walk
					}
					curr = succ.WithoutMark()
					if curr.IsNil() {
						if nilRetries++; nilRetries > maxNilRetries {
							return false, stCorruptNil, steps, restarts
						}
						continue retry
					}
					if succ, ok = l.s.ReadPtr(tid, 2, curr, WLevel0+lv); !ok {
						return false, stRestart, steps, restarts
					}
				}
				ckey, ok := l.s.Read(tid, curr, ds.WKey)
				if !ok {
					return false, stRestart, steps, restarts
				}
				l.Hit(tid, ds.PointSearchVisit, ckey)
				if int64(ckey) < key {
					pred = curr
					curr = succ.WithoutMark()
					continue
				}
				preds[lv] = pred
				succs[lv] = curr
				break
			}
		}
		skey, ok := l.s.Read(tid, succs[0], ds.WKey)
		if !ok {
			return false, stRestart, steps, restarts
		}
		return int64(skey) == key, stOK, steps, restarts
	}
}

// Contains implements ds.Set. It uses the same snipping find; a wait-free
// traversal variant exists in the literature but the shared find keeps the
// access pattern uniform for the access-aware verifier.
func (l *List) Contains(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.containsAt(tid, key)
}

// containsAt is Contains without the bracket: the caller holds an open
// operation bracket for tid (per-op or a fused window).
func (l *List) containsAt(tid int, key int64) (bool, error) {
	var preds, succs [MaxHeight]mem.Ref
	var spent uint64
	return l.findRetry(tid, "contains", key, &preds, &succs, &spent)
}

// findRetry runs find in a fresh read phase until one attempt completes.
// Every find of one operation draws on the operation's step budget
// (*spent): a stale edge that rolls every traversal back, or a delete
// that keeps rolling back, becomes a guard trip instead of a livelock.
func (l *List) findRetry(tid int, op string, key int64, preds, succs *[MaxHeight]mem.Ref, spent *uint64) (bool, error) {
	for {
		l.Phase(tid, ds.PhaseRead)
		found, st, steps, restarts := l.find(tid, key, preds, succs)
		if corrupt(st) {
			return false, l.corruptErr(op, st, steps, restarts)
		}
		if *spent += steps; *spent > maxSteps {
			return false, l.corruptErr(op, stCorruptRetry, *spent, restarts)
		}
		if st == stOK {
			return found, nil
		}
	}
}

// Insert implements ds.Set: link level 0 (the linearization point), then
// link the higher levels best-effort.
func (l *List) Insert(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.insertAt(tid, key)
}

// insertAt is Insert without the bracket.
func (l *List) insertAt(tid int, key int64) (bool, error) {
	height := randomHeight(tid, key)
	n, err := l.s.Alloc(tid)
	if err != nil {
		return false, err
	}
	l.s.Write(tid, n, ds.WKey, uint64(key))
	l.s.Write(tid, n, WHeight, uint64(height))
	var preds, succs [MaxHeight]mem.Ref
	var spent uint64
	for {
		found, err := l.findRetry(tid, "insert", key, &preds, &succs, &spent)
		if err != nil {
			return false, err
		}
		if found {
			l.s.Retire(tid, n) // lost the race: key already present
			return false, nil
		}
		for lv := 0; lv < height; lv++ {
			if !l.s.WritePtr(tid, n, WLevel0+lv, succs[lv]) {
				return false, ds.ErrCorrupted // n is local; cannot fail for a correct scheme
			}
		}
		if !l.s.Reserve(tid, preds[0], succs[0]) {
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		if err := l.A.MarkShared(n); err != nil {
			return false, err
		}
		swapped, ok := l.s.CASPtr(tid, preds[0], WLevel0, succs[0], n)
		if !ok {
			continue
		}
		if !swapped {
			continue
		}
		// Linearized. Link the upper levels; abandon a level when the
		// window moved or the node got deleted meanwhile.
		l.linkUpper(tid, key, n, height, &preds, &succs)
		if l.settle(tid, n, linkDone) {
			// Deleted while linking: snip any late link, then retire.
			if _, err := l.findRetry(tid, "insert", key, &preds, &succs, &spent); err != nil {
				return false, err
			}
			l.s.Retire(tid, n)
		}
		return true, nil
	}
}

// linkUpper links node n into levels 1..height-1. Failures re-find; if n
// becomes marked at level 0 the linking stops (the deleter owns it now).
func (l *List) linkUpper(tid int, key int64, n mem.Ref, height int, preds, succs *[MaxHeight]mem.Ref) {
	for lv := 1; lv < height; lv++ {
		for {
			n0, ok := l.s.Read(tid, n, WLevel0)
			if !ok {
				return
			}
			if mem.Ref(n0).Marked() {
				return // deleted while linking; nothing more to do
			}
			cur, ok := l.s.Read(tid, n, WLevel0+lv)
			if !ok {
				return
			}
			if mem.Ref(cur).Marked() {
				return
			}
			if succs[lv].SameNode(n) || preds[lv].SameNode(n) {
				// A re-find can observe n already linked at this level
				// (a CAS we believed failed, or a helper's view of the
				// window); linking n to itself would create a cycle of
				// valid nodes that no validation catches.
				return
			}
			// Reserve the level's window before its first write (n's own
			// level link, then pred's).
			if !l.s.Reserve(tid, preds[lv], n, succs[lv]) {
				return
			}
			l.Phase(tid, ds.PhaseWrite)
			if mem.Ref(cur) != succs[lv] {
				swapped, ok := l.s.CASPtr(tid, n, WLevel0+lv, mem.Ref(cur), succs[lv])
				if !ok {
					return
				}
				if !swapped {
					continue
				}
			}
			swapped, ok := l.s.CASPtr(tid, preds[lv], WLevel0+lv, succs[lv], n)
			if !ok {
				return
			}
			if swapped {
				break
			}
			found, st, _, _ := l.find(tid, key, preds, succs)
			if st != stOK || !found || succs[0] != n {
				return
			}
		}
	}
}

// settle sets bit in n's handshake word and reports whether the other
// side's bit was already set: the caller then owns n's retirement. n is
// never retired before both bits are set, so it cannot be reclaimed
// under these accesses and a rolled-back read simply retries. Should n
// be gone anyway (a scheme that reclaimed it early), settle gives up and
// leaves it alone rather than spin or retire it twice.
func (l *List) settle(tid int, n mem.Ref, bit uint64) bool {
	other := uint64(linkDone|unlinkDone) &^ bit
	for i := 0; i < maxSteps && l.A.Valid(n); i++ {
		h, ok := l.s.Read(tid, n, WHeight)
		if !ok {
			continue
		}
		if swapped, ok := l.s.CAS(tid, n, WHeight, h, h|bit); ok && swapped {
			return h&other != 0
		}
	}
	return false
}

// Delete implements ds.Set: mark the victim's levels top-down (level 0
// last — that CAS is the linearization point and establishes retirement
// ownership), then re-find to snip it everywhere and retire.
func (l *List) Delete(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.deleteAt(tid, key)
}

// deleteAt is Delete without the bracket.
func (l *List) deleteAt(tid int, key int64) (bool, error) {
	var preds, succs [MaxHeight]mem.Ref
	var spent uint64
retry:
	for {
		found, err := l.findRetry(tid, "delete", key, &preds, &succs, &spent)
		if err != nil {
			return false, err
		}
		if !found {
			return false, nil
		}
		victim := succs[0]
		h, ok := l.s.Read(tid, victim, WHeight)
		if !ok {
			continue
		}
		height := int(h & heightMask)
		if height < 1 || height > MaxHeight {
			return false, ds.ErrCorrupted
		}
		if !l.s.Reserve(tid, preds[0], victim, succs[0]) {
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		// Mark upper levels (others may also be marking). Every level
		// must end up marked before level 0 is: an unmarked upper link
		// is never snipped, and the victim would be retired while still
		// reachable. A rollback therefore restarts the whole delete.
		// Marks use a plain CAS, not CASPtr: they install no new target,
		// and a level the inserter abandoned before linking may still
		// point at a node reclaimed since — a link-target check would
		// refuse that mark forever.
		for lv := height - 1; lv >= 1; lv-- {
			for {
				nxt, ok := l.s.Read(tid, victim, WLevel0+lv)
				if !ok {
					continue retry
				}
				r := mem.Ref(nxt)
				if r.Marked() {
					break
				}
				swapped, ok := l.s.CAS(tid, victim, WLevel0+lv, uint64(r), uint64(r.WithMark()))
				if !ok {
					continue retry
				}
				if swapped {
					break
				}
			}
		}
		// Level 0: the owning CAS.
		for {
			nxt, ok := l.s.Read(tid, victim, WLevel0)
			if !ok {
				break
			}
			r := mem.Ref(nxt)
			if r.Marked() {
				// Someone else linearized the delete.
				break
			}
			swapped, ok := l.s.CAS(tid, victim, WLevel0, uint64(r), uint64(r.WithMark()))
			if !ok {
				break
			}
			if swapped {
				// We own the deletion: snip everywhere, then retire. A
				// rolled-back find may have left the victim linked, so
				// it reruns until one completes.
				if _, err := l.findRetry(tid, "delete", key, &preds, &succs, &spent); err != nil {
					return false, err
				}
				if l.settle(tid, victim, unlinkDone) {
					l.s.Retire(tid, victim)
				}
				return true, nil
			}
		}
		// Lost the marking race (or rolled back): re-find; if the key is
		// gone the competing delete won and ours returns false.
	}
}

var (
	_ ds.Iterator = (*List)(nil)
	_ ds.BatchSet = (*List)(nil)
	_ ds.StepSet  = (*List)(nil)
)

// StepOp implements ds.StepSet: one unbracketed op under a caller-held
// bracket. The skip list has no cross-op predecessor cache (its find
// re-derives the full preds/succs frontier per key), so batching buys
// bracket amortization only.
func (l *List) StepOp(tid int, kind ds.BatchKind, key int64) (bool, error) {
	switch kind {
	case ds.BatchContains:
		return l.containsAt(tid, key)
	case ds.BatchInsert:
		return l.insertAt(tid, key)
	case ds.BatchDelete:
		return l.deleteAt(tid, key)
	}
	return false, ds.ErrBadBatchOp
}

// ApplyBatch implements ds.BatchSet via the generic fused window.
func (l *List) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	return ds.RunBatch(l.s, l, tid, ops, res)
}

// Iterate implements ds.Iterator: an ascending barrier-based walk along
// level 0, skipping marked nodes without snipping them. Emission is
// monotonic (each chunk only reports keys greater than the last emitted
// one), so interference rewinds the walk but never the emission cursor —
// no key is reported twice, and a quiescent list is swept in one pass.
func (l *List) Iterate(tid int, fn func(key int64) bool) error {
	after := int64(ds.KeyMin)
	for {
		l.s.BeginOp(tid)
		done, err := l.iterChunk(tid, &after, fn)
		l.s.EndOp(tid)
		if done || err != nil {
			return err
		}
	}
}

// iterChunk emits up to iterBatch unmarked level-0 keys greater than
// *after inside one operation bracket; rollbacks and nil glimpses rewind
// the walk to the head.
func (l *List) iterChunk(tid int, after *int64, fn func(key int64) bool) (done bool, err error) {
	var steps, restarts uint64
	defer func() { l.Trav.Record(steps, restarts, restarts) }()
	emitted := 0
	for {
		if steps++; steps > maxSteps {
			return false, l.GuardTrip("skiplist", "iterate", steps, restarts)
		}
		l.Phase(tid, ds.PhaseRead)
		sc := 1
		pn, ok := l.s.ReadPtr(tid, sc, l.head, WLevel0)
		if !ok {
			restarts++
			continue
		}
		curr := pn.WithoutMark()
	walk:
		for {
			if steps++; steps > maxSteps {
				return false, l.GuardTrip("skiplist", "iterate", steps, restarts)
			}
			if curr.IsNil() {
				// A transient wide-CAS glimpse (see find); rewind.
				restarts++
				break walk
			}
			if curr == l.tail {
				return true, nil // sweep complete
			}
			sn := 3 - sc // alternate over {1, 2}: curr in sc, next in sn
			cn, ok := l.s.ReadPtr(tid, sn, curr, WLevel0)
			if !ok {
				restarts++
				break walk
			}
			ckey, ok := l.s.Read(tid, curr, ds.WKey)
			if !ok {
				restarts++
				break walk
			}
			k := int64(ckey)
			if !cn.Marked() && k > *after && k != ds.KeyMax {
				*after = k
				if !fn(k) {
					return true, nil
				}
				if emitted++; emitted >= iterBatch {
					return false, nil // re-bracket before continuing
				}
			}
			curr = cn.WithoutMark()
			sc = sn
		}
	}
}

// Keys walks level 0 without barriers and returns the unmarked keys in
// order. Only safe on a quiescent structure.
func (l *List) Keys() []int64 {
	var keys []int64
	a := l.A
	cur, _ := a.Load(0, l.head, WLevel0)
	for {
		r := mem.Ref(cur).WithoutMark()
		if r.IsNil() || r == l.tail {
			return keys
		}
		k, err := a.Load(0, r, ds.WKey)
		if err != nil {
			return keys
		}
		next, err := a.Load(0, r, WLevel0)
		if err != nil {
			return keys
		}
		if !mem.Ref(next).Marked() {
			keys = append(keys, int64(k))
		}
		cur = next
	}
}
