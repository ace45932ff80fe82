package oracle

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
)

// ShapesOf recovers each port's memref shape from a direct-ABI LLVM
// signature — one pointer-to-nested-static-arrays parameter per port, the
// form the adaptor and the C frontend produce. It is how `hls-adaptor
// -verify-semantics` builds a harness with no MLIR module in sight: the
// pre-adapt descriptor ABI carries sizes only as runtime arguments, but
// the adapted signature spells them out in the types.
func ShapesOf(f *llvm.Function) ([]*mlir.Type, error) {
	shapes := make([]*mlir.Type, 0, len(f.Params))
	for i, p := range f.Params {
		t := p.Ty
		if !t.IsPtr() {
			return nil, fmt.Errorf("oracle: param %d of @%s is not a pointer port", i, f.Name)
		}
		var dims []int64
		e := t.Elem
		for e.IsArray() {
			dims = append(dims, e.N)
			e = e.Elem
		}
		if len(dims) == 0 {
			return nil, fmt.Errorf("oracle: param %d of @%s has no static array shape", i, f.Name)
		}
		var elem *mlir.Type
		switch {
		case e.IsFP():
			elem = mlir.FloatType(e.Bits)
		case e.IsInt():
			elem = mlir.IntType(e.Bits)
		default:
			return nil, fmt.Errorf("oracle: param %d of @%s has unsupported element type", i, f.Name)
		}
		shapes = append(shapes, mlir.MemRef(dims, elem))
	}
	return shapes, nil
}

// NewFromLLVM captures the reference execution from an LLVM module —
// either ABI CheckLLVM recognizes — under explicit port shapes, for
// callers that never see the MLIR form (hls-adaptor on a .ll input: shapes
// come from the adapted signature via ShapesOf, the reference from the
// pristine pre-adapt module).
func NewFromLLVM(ref *llvm.Module, top string, shapes []*mlir.Type) (*Harness, error) {
	for i, t := range shapes {
		if !t.IsMemRef() || !t.HasStaticShape() {
			return nil, fmt.Errorf("oracle: shape %d is not a static memref", i)
		}
	}
	if err := mlir.CheckMemBudget(shapes...); err != nil {
		return nil, fmt.Errorf("oracle: arguments of @%s: %w", top, err)
	}
	h := &Harness{Top: top, MaxULP: DefaultMaxULP, Fuel: mlir.DefaultFuel, shapes: shapes}
	f := ref.FindFunc(top)
	if f == nil {
		return nil, fmt.Errorf("oracle: function @%s not found in reference module", top)
	}
	mems := h.freshMems()
	args, err := h.llvmArgs(f, mems)
	if err != nil {
		return nil, err
	}
	mc := interp.NewMachine(ref)
	if h.Fuel > 0 {
		mc.Fuel = h.Fuel
	}
	if _, _, err := mc.Run(context.Background(), top, args...); err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	h.refF = make([][]float64, len(mems))
	h.refI = make([][]int64, len(mems))
	for ai, mem := range mems {
		h.captureMem(ai, mem)
	}
	return h, nil
}

// captureMem records one executed allocation as the reference output for
// argument ai, at the argument's element precision.
func (h *Harness) captureMem(ai int, mem *interp.Mem) {
	t := h.shapes[ai]
	n := int(t.NumElements())
	switch {
	case t.Elem.IsFloat() && t.Elem.Width == 32:
		h.refF[ai] = make([]float64, n)
		for i, v := range mem.Float32Slice() {
			h.refF[ai][i] = float64(v)
		}
	case t.Elem.IsFloat():
		h.refF[ai] = append([]float64(nil), mem.Float64Slice()...)
	case t.Elem.Width == 32:
		h.refI[ai] = make([]int64, n)
		for i, v := range mem.Int32Slice() {
			h.refI[ai][i] = int64(v)
		}
	default:
		h.refI[ai] = make([]int64, n)
		for i := 0; i < n; i++ {
			h.refI[ai][i] = int64(binary.LittleEndian.Uint64(mem.Bytes[i*8:]))
		}
	}
}
