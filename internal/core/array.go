package core

import (
	"encoding/binary"
	"fmt"

	"xlupc/internal/svd"
)

// SharedArray is the runtime's handle-plus-layout view of a
// distributed shared array. The struct itself carries only universal
// information (the handle and the compiler-known layout); per-node
// local addresses live in each node's SVD replica, exactly as in the
// paper's design.
type SharedArray struct {
	rt   *Runtime
	h    svd.Handle
	l    Layout
	name string
}

// Name returns the diagnostic name given at allocation.
func (a *SharedArray) Name() string { return a.name }

// Len is the number of elements.
func (a *SharedArray) Len() int64 { return a.l.NumElems }

// ElemSize is the element size in bytes.
func (a *SharedArray) ElemSize() int { return a.l.ElemSize }

// Layout exposes the distribution for affinity-aware loops.
func (a *SharedArray) Layout() Layout { return a.l }

// Owner reports the UPC thread element i is affine to (upc_threadof).
func (a *SharedArray) Owner(i int64) int { return a.l.Owner(i) }

// Phase reports upc_phaseof for element i.
func (a *SharedArray) Phase(i int64) int64 { return a.l.Phase(i) }

// At returns a pointer-to-shared referring to element i.
func (a *SharedArray) At(i int64) Ref {
	a.check(i)
	return Ref{A: a, Idx: i}
}

func (a *SharedArray) check(i int64) {
	if i < 0 || i >= a.l.NumElems {
		panic(fmt.Sprintf("core: %s[%d] out of range (len %d)", a.name, i, a.l.NumElems))
	}
}

// Ref is a pointer-to-shared: an (array, element) pair supporting the
// pointer arithmetic the runtime implements for the compiler
// (upc_threadof, upc_phaseof, addition, difference).
type Ref struct {
	A   *SharedArray
	Idx int64
}

// Add advances the pointer n elements.
func (r Ref) Add(n int64) Ref { return r.A.At(r.Idx + n) }

// Phase reports the element's position in its block.
func (r Ref) Phase() int64 { return r.A.Phase(r.Idx) }

// String formats the reference for diagnostics.
func (r Ref) String() string { return fmt.Sprintf("%s[%d]", r.A.name, r.Idx) }

// byteOrder is the simulated machines' element encoding.
var byteOrder = binary.LittleEndian
