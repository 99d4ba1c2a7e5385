// Package pebr implements a pointer/epoch hybrid in the spirit of Kang &
// Jung's PEBR (PLDI 2020), the paper's reference [27]: epoch-based
// reclamation made robust by *ejecting* stalled threads.
//
// Plain EBR lets one stalled thread pin the global epoch forever. Here the
// epoch advancer tracks how long each active thread has blocked
// advancement; past a threshold the thread is ejected — the epoch advances
// without it and its announcement no longer protects anything. An ejected
// thread discovers its ejection at its next guarded access and must roll
// the operation back to its entry point; every access additionally
// validates the reference (reads of since-reclaimed nodes restart rather
// than surface stale values).
//
// The ERA position this buys: robust (a stalled thread is ejected, so the
// backlog is bounded) and widely applicable (the rollback discipline is
// safe on Harris's list), but *not* easily integrated — ejection is a
// control-flow restart, exactly what Condition 4 of Definition 5.3
// forbids. The real scheme needs process-wide memory fences for its
// ejection handshake (the paper lists PEBR among the non-self-contained
// schemes); the simulation substitutes the arena's reference validation.
package pebr

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/smr"
)

type pad [56]byte

type announcement struct {
	// word packs epoch<<1 | active.
	word atomic.Uint64
	_    pad
}

type ejectState struct {
	// flag is raised by the advancer, consumed by the owner.
	flag atomic.Bool
	// stuck counts consecutive advance attempts this thread blocked.
	stuck atomic.Uint64
	_     pad
}

// EjectAfter is the number of consecutive blocked advance attempts after
// which a thread is ejected.
const EjectAfter = 3

// PEBR is the ejection-based epoch scheme.
type PEBR struct {
	smr.Base
	epoch    atomic.Uint64
	announce []announcement
	eject    []ejectState
	wide     smr.WideCAS
}

var _ smr.Scheme = (*PEBR)(nil)

// New builds a PEBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *PEBR {
	return &PEBR{
		Base:     smr.NewBase(a, n, threshold),
		announce: make([]announcement, n),
		eject:    make([]ejectState, n),
	}
}

// Name implements smr.Scheme.
func (p *PEBR) Name() string { return "pebr" }

// Props implements smr.Scheme.
func (p *PEBR) Props() smr.Props {
	return smr.Props{
		RequiresRollback: true,  // ejection forces restarts
		SelfContained:    false, // real PEBR needs process-wide fences
		TypePreserving:   true,  // post-ejection stale reads are discarded
		MetaWordsUsed:    1,     // retire epoch
		Robustness:       smr.Robust,
		Applicability:    smr.WidelyApplicable,
	}
}

// BeginOp announces the current epoch and clears any stale ejection.
func (p *PEBR) BeginOp(tid int) {
	p.eject[tid].flag.Store(false)
	p.eject[tid].stuck.Store(0)
	p.announce[tid].word.Store(p.epoch.Load()<<1 | 1)
}

// EndOp announces quiescence.
func (p *PEBR) EndOp(tid int) {
	p.announce[tid].word.Store(p.epoch.Load() << 1)
}

// Rebracket renews the bracket inside a fused window: re-announce the
// current epoch and re-arm the ejection state, same effect as
// EndOp+BeginOp in two stores fewer. A thread ejected mid-window
// rejoins here, which is exactly the per-op behaviour.
func (p *PEBR) Rebracket(tid int) {
	p.eject[tid].flag.Store(false)
	p.eject[tid].stuck.Store(0)
	p.announce[tid].word.Store(p.epoch.Load()<<1 | 1)
}

// FusedWindowCap bounds the fused cadence: the ejection protocol reads
// a long-held active announcement as a stalled thread, so a fleet of
// wide fused windows keeps every thread's stuck counter past EjectAfter
// and the whole batch degenerates into rollback storms (observed as
// traversal-guard trips on the skip list). Re-announcing every few ops
// keeps announcements fresh enough that ejections stay what they are
// meant to be — a response to genuinely stalled threads.
func (p *PEBR) FusedWindowCap() int { return 2 * EjectAfter }

// tryAdvance advances the epoch if every active thread announced it,
// ejecting threads that have blocked advancement EjectAfter times in a
// row. Ejected threads stop counting as blockers.
func (p *PEBR) tryAdvance() {
	cur := p.epoch.Load()
	blocked := false
	for i := range p.announce {
		w := p.announce[i].word.Load()
		if w&1 == 1 && w>>1 != cur && !p.eject[i].flag.Load() {
			if p.eject[i].stuck.Add(1) >= EjectAfter {
				p.eject[i].flag.Store(true)
				continue
			}
			blocked = true
		}
	}
	if !blocked {
		p.epoch.CompareAndSwap(cur, cur+1)
	}
}

// ejected polls-and-consumes the thread's ejection flag, re-announcing at
// the current epoch so the thread rejoins the protocol as it rolls back.
func (p *PEBR) ejected(tid int) bool {
	if p.eject[tid].flag.Load() {
		p.eject[tid].flag.Store(false)
		p.eject[tid].stuck.Store(0)
		p.announce[tid].word.Store(p.epoch.Load()<<1 | 1)
		p.S.Restarts.Add(1)
		return true
	}
	return false
}

// Alloc implements smr.Scheme.
func (p *PEBR) Alloc(tid int) (mem.Ref, error) { return p.Arena.Alloc(tid) }

// Retire stamps the retire epoch; full lists advance and scan.
func (p *PEBR) Retire(tid int, r mem.Ref) {
	p.Arena.MetaStore(r.Slot(), smr.MetaRetire, p.epoch.Load())
	if p.Arena.Retire(tid, r) != nil {
		return
	}
	if p.PushRetired(tid, r) {
		p.tryAdvance()
		p.scan(tid)
	}
}

// scan reclaims nodes at least two epochs old (ejection guarantees the
// epoch keeps moving).
func (p *PEBR) scan(tid int) {
	cur := p.epoch.Load()
	l := &p.Lists[tid].Refs
	scanned := len(*l)
	kept := (*l)[:0]
	for _, r := range *l {
		if p.Arena.MetaLoad(r.Slot(), smr.MetaRetire)+2 <= cur {
			_ = p.wide.Reclaim(p.Arena, tid, r)
		} else {
			kept = append(kept, r)
		}
	}
	*l = kept
	p.NoteScan(tid, scanned, scanned-len(kept))
}

// Flush implements smr.Scheme.
func (p *PEBR) Flush(tid int) {
	p.tryAdvance()
	p.scan(tid)
}

// Read validates both the ejection flag and the reference: either failure
// discards the value and rolls the operation back.
func (p *PEBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	v, err := p.Arena.Load(tid, r.WithoutMark(), w)
	if p.ejected(tid) {
		return 0, false
	}
	if err != nil {
		// Only possible after an ejection whose flag a concurrent
		// advance re-raised; the value is discarded either way.
		p.S.Restarts.Add(1)
		return 0, false
	}
	return v, true
}

// ReadPtr implements smr.Scheme.
func (p *PEBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	v, ok := p.Read(tid, src, w)
	return mem.Ref(v), ok
}

// Write implements smr.Scheme.
func (p *PEBR) Write(tid int, r mem.Ref, w int, v uint64) bool {
	if err := p.Arena.Store(tid, r.WithoutMark(), w, v); err != nil {
		p.S.Restarts.Add(1)
		return false
	}
	return true
}

// WritePtr implements smr.Scheme.
func (p *PEBR) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return p.Write(tid, r, w, uint64(v))
}

// CAS implements smr.Scheme; updates through invalid references fail and
// roll back.
func (p *PEBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	swapped, ok := p.wide.CAS(p.Arena, tid, r, w, old, new, mem.NilRef)
	if !ok {
		p.S.Restarts.Add(1)
	}
	return swapped, ok
}

// CASPtr implements smr.Scheme. Like VBR, a post-ejection link must not
// publish a reference whose target was reclaimed between read and link
// (it would leave a permanently stale edge); smr.WideCAS validates the
// target atomically with the swap.
func (p *PEBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	swapped, ok := p.wide.CAS(p.Arena, tid, r, w, uint64(old), uint64(new), new)
	if !ok {
		p.S.Restarts.Add(1)
	}
	return swapped, ok
}

// Reserve implements smr.Scheme; PEBR has no reservations, but polls the
// ejection flag at the phase boundary.
func (p *PEBR) Reserve(tid int, refs ...mem.Ref) bool {
	return !p.ejected(tid)
}
