// Package none implements the no-reclamation baseline: retired nodes are
// never reclaimed.
//
// "none" is trivially safe (nothing is ever recycled, so every reference
// stays valid forever), trivially easy to integrate and strongly
// applicable — and maximally non-robust: the retired backlog equals the
// total number of retirements, and a long run exhausts the heap. It
// anchors the robustness axis of every experiment and isolates the cost of
// reclamation machinery in the throughput benches.
package none

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// None is the leak-everything baseline.
type None struct {
	smr.Base
}

var _ smr.Scheme = (*None)(nil)

// New builds a None instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *None {
	return &None{Base: smr.NewBase(a, n, threshold)}
}

// Name implements smr.Scheme.
func (s *None) Name() string { return "none" }

// Props implements smr.Scheme.
func (s *None) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		Robustness:    smr.NotRobust,
		Applicability: smr.StronglyApplicable,
	}
}

// BeginOp implements smr.Scheme.
func (s *None) BeginOp(tid int) {}

// EndOp implements smr.Scheme.
func (s *None) EndOp(tid int) {}

// Alloc implements smr.Scheme.
func (s *None) Alloc(tid int) (mem.Ref, error) { return s.Arena.Alloc(tid) }

// Retire marks the node retired and forgets it.
func (s *None) Retire(tid int, r mem.Ref) { _ = s.Arena.Retire(tid, r) }

// Flush implements smr.Scheme.
func (s *None) Flush(tid int) {}

// Read implements smr.Scheme.
func (s *None) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return s.TransparentRead(tid, r, w)
}

// ReadPtr implements smr.Scheme.
func (s *None) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	return s.TransparentReadPtr(tid, src, w)
}

// Write implements smr.Scheme.
func (s *None) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return s.TransparentWrite(tid, r, w, v)
}

// WritePtr implements smr.Scheme.
func (s *None) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return s.TransparentWrite(tid, r, w, uint64(v))
}

// CAS implements smr.Scheme.
func (s *None) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return s.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (s *None) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return s.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// Reserve implements smr.Scheme.
func (s *None) Reserve(tid int, refs smr.Reservation) bool { return true }
