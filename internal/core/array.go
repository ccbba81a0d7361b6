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

// ElemSize is the element size in bytes.
func (a *SharedArray) ElemSize() int { return a.l.ElemSize }

// Layout exposes the distribution for affinity-aware loops.
func (a *SharedArray) Layout() Layout { return a.l }

// Owner reports the UPC thread element i is affine to (upc_threadof).
func (a *SharedArray) Owner(i int64) int { return a.l.Owner(i) }

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

// Ref is a pointer-to-shared: an (array, element) pair. The pointer
// arithmetic the runtime implements for the compiler (upc_threadof,
// upc_phaseof) is its array's Layout.
type Ref struct {
	A   *SharedArray
	Idx int64
}

// String formats the reference for diagnostics.
func (r Ref) String() string { return fmt.Sprintf("%s[%d]", r.A.name, r.Idx) }

// byteOrder is the simulated machines' element encoding.
var byteOrder = binary.LittleEndian
