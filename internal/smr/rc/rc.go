// Package rc implements lock-free reference counting in the style of
// Valois / Detlefs et al. / Gidenstam et al.
//
// Every node carries a reference count covering (a) incoming links from
// other nodes and (b) thread-held references acquired during traversal.
// Link updates go through the WritePtr/CASPtr barriers, which adjust the
// counts of the old and new targets; a retired node whose count drains to
// zero is reclaimed immediately, cascading decrements to its link targets.
//
// RC's integration is automatic (barrier replacements, an added field) and
// it is safe on traversal-through-deleted-nodes structures: a thread
// holding the head of a retired chain keeps the whole chain alive through
// the link counts. That is precisely why it is not robust (Section 2 of
// the paper: "reference counting-based schemes are usually not robust,
// mainly due to the existence of cyclic structures of retired objects"):
// one stalled thread pins an unbounded chain.
package rc

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// claimed marks a count word whose node is being reclaimed.
const claimed = ^uint64(0)

// RC is the reference-counting scheme. Construct with New and register the
// data structure's link words with SetLinkWords before use (the cascade
// must know which payload words hold references).
type RC struct {
	smr.Base
	linkWords []int
	held      [][]mem.Ref
}

var _ smr.Scheme = (*RC)(nil)

// New builds an RC instance over arena a for n threads. linkWords lists
// the payload word indices that hold mem.Ref values; it may be extended
// later with SetLinkWords.
func New(a *mem.Arena, n, threshold int, linkWords ...int) *RC {
	return &RC{
		Base:      smr.NewBase(a, n, threshold),
		linkWords: linkWords,
		held:      make([][]mem.Ref, n),
	}
}

// SetLinkWords declares which payload words hold references. Call before
// any operation runs.
func (c *RC) SetLinkWords(words []int) { c.linkWords = words }

// Name implements smr.Scheme.
func (c *RC) Name() string { return "rc" }

// Props implements smr.Scheme.
func (c *RC) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		MetaWordsUsed: 1, // the count
		Robustness:    smr.NotRobust,
		Applicability: smr.WidelyApplicable,
	}
}

// rcInc increments r's count unless the node is being reclaimed.
func (c *RC) rcInc(r mem.Ref) bool {
	slot := r.Slot()
	for {
		v := c.Arena.MetaLoad(slot, smr.MetaVersion)
		if v == claimed {
			return false
		}
		if c.Arena.MetaCAS(slot, smr.MetaVersion, v, v+1) {
			return true
		}
	}
}

// rcDec decrements r's count and reclaims the node if it drained to zero
// while retired.
func (c *RC) rcDec(tid int, r mem.Ref) {
	slot := r.Slot()
	for {
		v := c.Arena.MetaLoad(slot, smr.MetaVersion)
		if v == claimed || v == 0 {
			return // already being reclaimed, or a count we do not own
		}
		if c.Arena.MetaCAS(slot, smr.MetaVersion, v, v-1) {
			if v-1 == 0 {
				c.maybeFree(tid, r)
			}
			return
		}
	}
}

// maybeFree claims and reclaims r if it is retired with a zero count,
// cascading decrements through its link words.
func (c *RC) maybeFree(tid int, r mem.Ref) {
	stack := []mem.Ref{r}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !c.Arena.Valid(n) || c.Arena.StateOf(n.Slot()) != mem.Retired {
			continue
		}
		if c.Arena.MetaLoad(n.Slot(), smr.MetaVersion) != 0 {
			continue
		}
		if !c.Arena.MetaCAS(n.Slot(), smr.MetaVersion, 0, claimed) {
			continue
		}
		// Collect link targets before the memory is recycled.
		var targets []mem.Ref
		for _, w := range c.linkWords {
			if v, err := c.Arena.Load(tid, n.WithoutMark(), w); err == nil {
				if t := mem.Ref(v).WithoutMark(); !t.IsNil() {
					targets = append(targets, t)
				}
			}
		}
		if c.Arena.Reclaim(tid, n) != nil {
			continue
		}
		// The count word is meta and survives reclamation: reset it for
		// the next occupant of the slot.
		c.Arena.MetaStore(n.Slot(), smr.MetaVersion, 0)
		for _, t := range targets {
			slot := t.Slot()
			for {
				v := c.Arena.MetaLoad(slot, smr.MetaVersion)
				if v == claimed || v == 0 {
					break
				}
				if c.Arena.MetaCAS(slot, smr.MetaVersion, v, v-1) {
					if v-1 == 0 {
						stack = append(stack, t)
					}
					break
				}
			}
		}
	}
}

// BeginOp implements smr.Scheme.
func (c *RC) BeginOp(tid int) {}

// EndOp releases every thread-held reference acquired during the
// operation.
func (c *RC) EndOp(tid int) {
	for _, r := range c.held[tid] {
		c.rcDec(tid, r)
	}
	c.held[tid] = c.held[tid][:0]
}

// Alloc implements smr.Scheme.
func (c *RC) Alloc(tid int) (mem.Ref, error) { return c.Arena.Alloc(tid) }

// Retire implements smr.Scheme. If the count already drained (the unlink
// removed the last reference), reclaim immediately.
func (c *RC) Retire(tid int, r mem.Ref) {
	if c.Arena.Retire(tid, r) != nil {
		return
	}
	if c.Arena.MetaLoad(r.Slot(), smr.MetaVersion) == 0 {
		c.maybeFree(tid, r)
	}
}

// Flush implements smr.Scheme; RC reclaims eagerly and keeps no lists.
func (c *RC) Flush(tid int) {}

// Read implements smr.Scheme.
func (c *RC) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return c.TransparentRead(tid, r, w)
}

// ReadPtr loads a link and acquires a thread reference on the target,
// validating afterwards that the target was not reclaimed concurrently;
// on a lost race it re-reads the link.
func (c *RC) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	for attempt := 0; ; attempt++ {
		v, err := c.Arena.Load(tid, src.WithoutMark(), w)
		if err != nil {
			c.S.StaleUses.Add(1)
			return mem.Ref(v), true
		}
		t := mem.Ref(v)
		if t.IsNil() {
			return t, true
		}
		if c.rcInc(t.WithoutMark()) {
			if c.Arena.Valid(t.WithoutMark()) {
				c.held[tid] = append(c.held[tid], t.WithoutMark())
				return t, true
			}
			c.rcDec(tid, t.WithoutMark())
		}
		if attempt >= 64 {
			// The link keeps pointing at a node we cannot pin: give up
			// and let the stale value escape (the monitors will see it).
			c.S.StaleUses.Add(1)
			return t, true
		}
	}
}

// Write implements smr.Scheme.
func (c *RC) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return c.TransparentWrite(tid, r, w, v)
}

// WritePtr stores a link, transferring counts from the old target to the
// new one. It is only legal on nodes the operation owns (local
// initialization), so the read-modify-write needs no atomicity.
func (c *RC) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	old, err := c.Arena.Load(tid, r.WithoutMark(), w)
	if err != nil {
		c.S.StaleUses.Add(1)
	}
	if t := v.WithoutMark(); !t.IsNil() {
		c.rcInc(t)
	}
	if err := c.Arena.Store(tid, r.WithoutMark(), w, uint64(v)); err != nil {
		c.S.StaleUses.Add(1)
	}
	if t := mem.Ref(old).WithoutMark(); !t.IsNil() {
		c.rcDec(tid, t)
	}
	return true
}

// CAS implements smr.Scheme.
func (c *RC) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return c.TransparentCAS(tid, r, w, old, new)
}

// CASPtr swings a link, transferring counts: the new target is pinned
// before the CAS; on success the old target loses its link count, on
// failure the new target's pin is dropped.
func (c *RC) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	nt := new.WithoutMark()
	if !nt.IsNil() {
		if !c.rcInc(nt) || !c.Arena.Valid(nt) {
			// Installing a link to a node that is already being
			// reclaimed must not happen; fail the CAS.
			if !nt.IsNil() && c.Arena.Valid(nt) {
				c.rcDec(tid, nt)
			}
			return false, true
		}
	}
	swapped, err := c.Arena.CAS(tid, r.WithoutMark(), w, uint64(old), uint64(new))
	if err != nil {
		c.S.StaleUses.Add(1)
	}
	if swapped {
		if ot := old.WithoutMark(); !ot.IsNil() {
			c.rcDec(tid, ot)
		}
	} else if !nt.IsNil() {
		c.rcDec(tid, nt)
	}
	return swapped, true
}

// Reserve implements smr.Scheme.
func (c *RC) Reserve(tid int, refs smr.Reservation) bool { return true }
