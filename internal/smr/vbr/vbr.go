// Package vbr implements version-based reclamation in the style of
// Sheffi, Herlihy & Petrank (DISC 2021).
//
// VBR is fully optimistic: nodes are reclaimed *immediately* when the
// retire list fills — no grace periods, no per-pointer protection — and
// correctness is recovered by versioning. Every reference carries the
// version (allocation sequence number) of the node it was created for;
// every read validates the version after loading and every update is
// version-checked so that updates through stale references are guaranteed
// to fail. When validation fails the operation rolls back to its
// checkpoint (in this codebase: the operation entry point) and re-executes.
//
// In the simulation the arena's tagged references *are* the version
// mechanism: the tag is the node version, reads through stale tags return
// mem.ErrInvalid, and updates go through smr.WideCAS, which refuses
// updates through invalid references or installing invalid targets
// (standing in for the wide CAS the real scheme needs — see DESIGN.md). This gives VBR the strongest robustness in the repository
// (the retired backlog never exceeds the retire-list threshold per thread)
// and wide applicability, at the price of rollbacks: it is not easily
// integrated per Definition 5.3.
package vbr

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// VBR is the version-based reclamation scheme.
type VBR struct {
	smr.Base
	wide smr.WideCAS
}

var _ smr.Scheme = (*VBR)(nil)

// New builds a VBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *VBR {
	return &VBR{Base: smr.NewBase(a, n, threshold)}
}

// Name implements smr.Scheme.
func (v *VBR) Name() string { return "vbr" }

// Props implements smr.Scheme.
func (v *VBR) Props() smr.Props {
	return smr.Props{
		RequiresRollback: true,
		SelfContained:    false, // real VBR relies on a wide CAS
		TypePreserving:   true,  // stale reads must land in program space
		MetaWordsUsed:    1,     // the version (the arena tag in this simulation)
		Robustness:       smr.Robust,
		Applicability:    smr.WidelyApplicable,
	}
}

// BeginOp implements smr.Scheme.
func (v *VBR) BeginOp(tid int) {}

// EndOp implements smr.Scheme.
func (v *VBR) EndOp(tid int) {}

// Alloc implements smr.Scheme. Type preservation comes from the arena:
// slots are recycled with their metadata intact.
func (v *VBR) Alloc(tid int) (mem.Ref, error) { return v.Arena.Alloc(tid) }

// Retire appends to the retire list; a full list is reclaimed wholesale,
// immediately. This is the scheme's robustness: the backlog per thread
// never exceeds the threshold.
func (v *VBR) Retire(tid int, r mem.Ref) {
	if v.Arena.Retire(tid, r) != nil {
		return
	}
	if v.PushRetired(tid, r) {
		v.Flush(tid)
	}
}

// Flush reclaims the thread's whole retire list.
func (v *VBR) Flush(tid int) {
	l := &v.Lists[tid].Refs
	v.NoteScan(tid, len(*l), len(*l))
	for _, r := range *l {
		_ = v.wide.Reclaim(v.Arena, tid, r)
	}
	*l = (*l)[:0]
}

// Read loads and then validates the version. A stale read is discarded and
// the operation is rolled back, satisfying Definition 4.2: the value read
// through an invalid pointer is never used.
func (v *VBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	val, err := v.Arena.Load(tid, r.WithoutMark(), w)
	if err != nil {
		v.S.Restarts.Add(1)
		return 0, false
	}
	return val, true
}

// ReadPtr implements smr.Scheme; same validation as Read.
func (v *VBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	val, ok := v.Read(tid, src, w)
	return mem.Ref(val), ok
}

// Write implements smr.Scheme. Stores are only used on nodes the operation
// owns (pre-publication initialization); a stale target rolls back.
func (v *VBR) Write(tid int, r mem.Ref, w int, val uint64) bool {
	if err := v.Arena.Store(tid, r.WithoutMark(), w, val); err != nil {
		v.S.Restarts.Add(1)
		return false
	}
	return true
}

// WritePtr implements smr.Scheme.
func (v *VBR) WritePtr(tid int, r mem.Ref, w int, val mem.Ref) bool {
	return v.Write(tid, r, w, uint64(val))
}

// CAS implements smr.Scheme. An update through an invalid reference is
// guaranteed to fail (the version check); the operation rolls back.
func (v *VBR) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	swapped, ok := v.wide.CAS(v.Arena, tid, r, w, old, new, mem.NilRef)
	if !ok {
		v.S.Restarts.Add(1)
	}
	return swapped, ok
}

// CASPtr implements smr.Scheme. Beyond CAS's version check on the *source*
// word, a link installation must also cover the *target*: between reading
// a reference and linking it, the target may have been reclaimed, and
// publishing such a reference would leave a permanently stale edge that
// livelocks every traversal crossing it. The real scheme's wide CAS covers
// the target's version atomically; so does smr.WideCAS.
func (v *VBR) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	swapped, ok := v.wide.CAS(v.Arena, tid, r, w, uint64(old), uint64(new), new)
	if !ok {
		v.S.Restarts.Add(1)
	}
	return swapped, ok
}

// Reserve implements smr.Scheme; VBR needs no reservations.
func (v *VBR) Reserve(tid int, refs ...mem.Ref) bool { return true }
