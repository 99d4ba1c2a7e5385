// Package unsafefree implements the failure-injection baseline: retire()
// reclaims immediately, with no protection whatsoever.
//
// It is *not* a safe memory reclamation scheme (Definition 4.2): any
// concurrent reader of a retired node dereferences reclaimed memory. The
// baseline exists to validate the monitors — every experiment must detect
// its unsafety — and to measure the ceiling of reclamation eagerness.
package unsafefree

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// Free is the immediate-free baseline.
type Free struct {
	smr.Base
}

var _ smr.Scheme = (*Free)(nil)

// New builds a Free instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *Free {
	return &Free{Base: smr.NewBase(a, n, threshold)}
}

// Name implements smr.Scheme.
func (s *Free) Name() string { return "unsafefree" }

// Props implements smr.Scheme.
func (s *Free) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		Robustness:    smr.Robust, // the backlog is always zero
		Applicability: smr.Unsafe,
	}
}

// BeginOp implements smr.Scheme.
func (s *Free) BeginOp(tid int) {}

// EndOp implements smr.Scheme.
func (s *Free) EndOp(tid int) {}

// Alloc implements smr.Scheme.
func (s *Free) Alloc(tid int) (mem.Ref, error) { return s.Arena.Alloc(tid) }

// Retire reclaims immediately.
func (s *Free) Retire(tid int, r mem.Ref) {
	if s.Arena.Retire(tid, r) != nil {
		return
	}
	_ = s.Arena.Reclaim(tid, r)
}

// Flush implements smr.Scheme.
func (s *Free) Flush(tid int) {}

// Read implements smr.Scheme.
func (s *Free) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return s.TransparentRead(tid, r, w)
}

// ReadPtr implements smr.Scheme.
func (s *Free) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	return s.TransparentReadPtr(tid, src, w)
}

// Write implements smr.Scheme.
func (s *Free) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return s.TransparentWrite(tid, r, w, v)
}

// WritePtr implements smr.Scheme.
func (s *Free) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return s.TransparentWrite(tid, r, w, uint64(v))
}

// CAS implements smr.Scheme.
func (s *Free) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return s.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (s *Free) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return s.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// Reserve implements smr.Scheme.
func (s *Free) Reserve(tid int, refs smr.Reservation) bool { return true }
