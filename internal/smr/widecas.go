package smr

import (
	"sync"

	"repro/internal/mem"
)

// wideStripes is the WideCAS lock-stripe count (a power of two).
const wideStripes = 256

// WideCAS emulates the double-width CAS the optimistic schemes (VBR,
// PEBR after an ejection) rely on: an update that takes effect only if
// the source node and the installed target are both still the versions
// the references name. The arena alone can only validate around a plain
// CAS and undo afterwards, and the undo window lets other threads see
// the bad update. Here every update read-locks the stripes of its source
// and target, and every reclamation write-locks its slot's stripe, so a
// node cannot be reclaimed between the validation and the swap. Updates
// on different nodes never block each other; an update waits only for a
// reclamation of a node in the same stripe.
type WideCAS struct {
	stripes [wideStripes]struct {
		sync.RWMutex
		_ [40]byte
	}
}

// CAS swaps payload word w of r from old to new, provided r is valid and
// target — the reference new installs, or mem.NilRef for a non-link
// word — is nil or valid. ok=false reports an invalid source or target:
// the caller rolls back, and nothing was written.
//
// The stripes of r and target are read-locked lower index first:
// reclaimers take one stripe at a time, so ordered readers cannot
// deadlock behind them.
func (wc *WideCAS) CAS(a *mem.Arena, tid int, r mem.Ref, w int, old, new uint64, target mem.Ref) (swapped, ok bool) {
	r, target = r.WithoutMark(), target.Bare()
	i := r.Slot() & (wideStripes - 1)
	j := i
	if !target.IsNil() {
		j = target.Slot() & (wideStripes - 1)
	}
	if j < i {
		i, j = j, i
	}
	wc.stripes[i].RLock()
	if j != i {
		wc.stripes[j].RLock()
	}
	if target.IsNil() || a.Valid(target) {
		var err error
		swapped, err = a.CAS(tid, r, w, old, new)
		ok = err == nil
	}
	if j != i {
		wc.stripes[j].RUnlock()
	}
	wc.stripes[i].RUnlock()
	return swapped, ok
}

// Reclaim reclaims r with its stripe write-locked, so no WideCAS update
// can validate r and then land on its recycled memory.
func (wc *WideCAS) Reclaim(a *mem.Arena, tid int, r mem.Ref) error {
	m := &wc.stripes[r.Slot()&(wideStripes-1)]
	m.Lock()
	defer m.Unlock()
	return a.Reclaim(tid, r)
}
