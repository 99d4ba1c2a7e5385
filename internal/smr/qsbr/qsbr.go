// Package qsbr implements quiescent-state-based reclamation, the
// read-copy-update-style sibling of EBR.
//
// QSBR differs from EBR only in where quiescence is announced: there is no
// per-operation epoch announcement; a thread passes through a quiescent
// state between operations (EndOp), and a retired node is reclaimable once
// every thread has been quiescent since its retirement. Like EBR it is
// easily integrated and strongly applicable but not robust: a stalled
// thread never again reaches a quiescent state, so nothing retired after
// its last quiescent state is ever reclaimed.
package qsbr

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type slot struct {
	// counter<<1 | online; the counter increments at each quiescent state.
	word atomic.Uint64
	_    pad
}

// QSBR is the quiescent-state-based reclamation scheme. Each thread keeps
// two retire buckets: pending (retired since the last grace-period
// snapshot) and waiting (retired before it). When every thread has been
// quiescent since the snapshot, the waiting bucket is reclaimed and the
// pending bucket becomes the new waiting bucket under a fresh snapshot.
type QSBR struct {
	smr.Base  // Lists holds the pending buckets
	quiescent []slot
	waiting   [][]mem.Ref
	snaps     [][]uint64
}

var _ smr.Scheme = (*QSBR)(nil)

// New builds a QSBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *QSBR {
	q := &QSBR{
		Base:      smr.NewBase(a, n, threshold),
		quiescent: make([]slot, n),
		waiting:   make([][]mem.Ref, n),
		snaps:     make([][]uint64, n),
	}
	for i := range q.snaps {
		q.snaps[i] = make([]uint64, n)
	}
	return q
}

// Name implements smr.Scheme.
func (q *QSBR) Name() string { return "qsbr" }

// Props implements smr.Scheme.
func (q *QSBR) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 0,
		Robustness:    smr.NotRobust,
		Applicability: smr.StronglyApplicable,
	}
}

// BeginOp marks the thread online (inside a critical section).
func (q *QSBR) BeginOp(tid int) {
	w := q.quiescent[tid].word.Load()
	q.quiescent[tid].word.Store(w | 1)
}

// EndOp passes through a quiescent state: the counter increments and the
// thread goes offline.
func (q *QSBR) EndOp(tid int) {
	w := q.quiescent[tid].word.Load()
	q.quiescent[tid].word.Store((w>>1 + 1) << 1)
}

// Rebracket renews the bracket inside a fused window with one store:
// bump the quiescence counter (proving a pass through a quiescent
// state, which is what grace periods wait for) while staying online.
func (q *QSBR) Rebracket(tid int) {
	w := q.quiescent[tid].word.Load()
	q.quiescent[tid].word.Store((w>>1+1)<<1 | 1)
}

// Alloc implements smr.Scheme.
func (q *QSBR) Alloc(tid int) (mem.Ref, error) { return q.Arena.Alloc(tid) }

// Retire appends to the thread's pending bucket; a full bucket triggers a
// grace-period check.
func (q *QSBR) Retire(tid int, r mem.Ref) {
	if q.Arena.Retire(tid, r) != nil {
		return
	}
	if q.PushRetired(tid, r) {
		q.scan(tid)
	}
}

// graceElapsed reports whether every thread has either been offline at the
// snapshot or since passed a quiescent state. A thread that has been
// inside the same critical section continuously since the snapshot blocks
// the grace period.
func (q *QSBR) graceElapsed(snap []uint64) bool {
	for i := range q.quiescent {
		w := q.quiescent[i].word.Load()
		if snap[i]&1 == 1 && w == snap[i] {
			return false
		}
	}
	return true
}

// scan reclaims the waiting bucket if its grace period elapsed, then
// rotates pending into waiting under a fresh snapshot. Nodes therefore
// wait at least one full grace period after retirement: the snapshot is
// always taken after every node in the bucket was retired, and a node
// retired before the snapshot cannot be reached by any critical section
// that started after it (the node was unlinked before retirement).
func (q *QSBR) scan(tid int) {
	snap := q.snaps[tid]
	if !q.graceElapsed(snap) {
		q.NoteScan(tid, 0, 0)
		return
	}
	reclaimed := len(q.waiting[tid])
	q.NoteScan(tid, reclaimed, reclaimed)
	for _, r := range q.waiting[tid] {
		_ = q.Arena.Reclaim(tid, r)
	}
	pending := &q.Lists[tid].Refs
	q.waiting[tid] = append(q.waiting[tid][:0], *pending...)
	*pending = (*pending)[:0]
	for i := range q.quiescent {
		snap[i] = q.quiescent[i].word.Load()
	}
}

// Flush implements smr.Scheme.
func (q *QSBR) Flush(tid int) { q.scan(tid) }

// Read implements smr.Scheme.
func (q *QSBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return q.TransparentRead(tid, r, w)
}

// ReadPtr implements smr.Scheme.
func (q *QSBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	return q.TransparentReadPtr(tid, src, w)
}

// Write implements smr.Scheme.
func (q *QSBR) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return q.TransparentWrite(tid, r, w, v)
}

// CAS implements smr.Scheme.
func (q *QSBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return q.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (q *QSBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return q.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// WritePtr implements smr.Scheme.
func (q *QSBR) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return q.TransparentWrite(tid, r, w, uint64(v))
}

// Reserve implements smr.Scheme.
func (q *QSBR) Reserve(tid int, refs smr.Reservation) bool { return true }
