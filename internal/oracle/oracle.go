// Package oracle is the differential-execution harness behind
// flow.Options.VerifySemantics: it captures a reference execution of the
// pristine MLIR kernel once, then re-executes the evolving IR after every
// pipeline unit — MLIR form through the MLIR stages, LLVM form after
// translation — on identically-initialized buffers and compares the output
// memory state. Integers must match bitwise; floats must agree within a
// ULP tolerance (interp.ULPEqual — never an ad-hoc epsilon). The first
// divergence names the unit that introduced it, the semantic twin of
// flow.Bisect: where bisection localizes the first unit that crashes or
// breaks a structural invariant, the oracle localizes the first unit that
// computes the wrong answer while the IR still verifies and schedules.
package oracle

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/translate"
)

// DefaultMaxULP is the oracle's float tolerance: transformed pipelines may
// legitimately reassociate a constant fold or two, but anything beyond a
// few units in the last place at the element width is a wrong answer.
const DefaultMaxULP = 4

// Divergence is the first element-wise mismatch between a staged execution
// and the reference run.
type Divergence struct {
	// Arg and Index locate the mismatch: argument position of the top
	// function and row-major element offset within it.
	Arg   int
	Index int
	// Got is the staged pipeline's value, Want the reference value.
	Got, Want float64
	// ULP is the distance at the element width (0 for integer elements,
	// which must match exactly).
	ULP uint64
	// Int marks an integer-element mismatch.
	Int bool
}

// Error implements error.
func (d *Divergence) Error() string {
	if d.Int {
		return fmt.Sprintf("semantic divergence: arg %d element %d: got %d, want %d",
			d.Arg, d.Index, int64(d.Got), int64(d.Want))
	}
	return fmt.Sprintf("semantic divergence: arg %d element %d: got %v, want %v (%d ULP apart)",
		d.Arg, d.Index, d.Got, d.Want, d.ULP)
}

// IsMiscompile classifies an oracle check error: a divergence, a trap
// (out-of-bounds, division by zero), or fuel exhaustion all mean the
// pipeline changed what the program computes — a miscompile. Anything else
// (an op the oracle cannot execute, an ABI it does not recognize) is an
// oracle limitation and must surface as an ordinary error, never as a
// false miscompile verdict.
func IsMiscompile(err error) bool {
	var d *Divergence
	if errors.As(err, &d) {
		return true
	}
	if errors.Is(err, interp.ErrFuel) || errors.Is(err, mlir.ErrFuel) {
		return true
	}
	if _, ok := interp.AsTrap(err); ok {
		return true
	}
	// The MLIR interpreter reports runtime faults as plain errors.
	msg := err.Error()
	for _, s := range []string{"out of bounds", "division by zero", "remainder by zero", "non-positive scf.for step"} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// Harness holds one kernel's reference execution. It is built from the
// pristine module before any pass runs and is immutable afterwards, so a
// single harness checks every stage of a flow — and both flows of a
// differential pair, since they share the pre-pipeline semantics.
type Harness struct {
	// Top is the kernel function under test.
	Top string
	// MaxULP is the float tolerance (DefaultMaxULP when zero-initialized
	// via New).
	MaxULP uint64
	// Fuel bounds each staged execution.
	Fuel int64

	shapes []*mlir.Type // memref type of each top-function argument
	refF   [][]float64  // reference output, float-element arguments
	refI   [][]int64    // reference output, integer-element arguments
}

// New captures the reference execution of top in m. The module must be in
// its pre-pipeline form; callers own making the call before any pass
// mutates it.
func New(m *mlir.Module, top string) (*Harness, error) {
	f := m.FindFunc(top)
	if f == nil {
		return nil, fmt.Errorf("oracle: function %q not found", top)
	}
	h := &Harness{Top: top, MaxULP: DefaultMaxULP, Fuel: mlir.DefaultFuel}
	for i, a := range mlir.FuncBody(f).Args {
		t := a.Type()
		if !t.IsMemRef() || !t.HasStaticShape() {
			return nil, fmt.Errorf("oracle: argument %d of %q is not a static memref", i, top)
		}
		h.shapes = append(h.shapes, t)
	}
	if err := mlir.CheckMemBudget(h.shapes...); err != nil {
		return nil, fmt.Errorf("oracle: arguments of %q: %w", top, err)
	}
	bufs := h.freshMLIRBufs()
	if err := m.InterpretWithFuel(top, h.Fuel, bufs...); err != nil {
		return nil, fmt.Errorf("oracle: reference execution: %w", err)
	}
	h.refF = make([][]float64, len(bufs))
	h.refI = make([][]int64, len(bufs))
	for i, b := range bufs {
		h.refF[i] = b.F
		h.refI[i] = b.I
	}
	return h, nil
}

// fill writes the deterministic input pattern (the polybench initializer)
// into element i of argument ai at the argument's element precision.
func fillFloat(ai, i int, ty *mlir.Type) float64 {
	v := float64((i*7+ai*13)%17) / 17
	if ty.Width == 32 {
		return float64(float32(v))
	}
	return v
}

func fillInt(ai, i int) int64 { return int64((i*7 + ai*13) % 17) }

// freshMLIRBufs allocates and deterministically fills one MemBuf per
// argument.
func (h *Harness) freshMLIRBufs() []*mlir.MemBuf {
	bufs := make([]*mlir.MemBuf, len(h.shapes))
	for ai, t := range h.shapes {
		b := mlir.NewMemBuf(t)
		for i := range b.F {
			b.F[i] = fillFloat(ai, i, t.Elem)
		}
		for i := range b.I {
			b.I[i] = fillInt(ai, i)
		}
		bufs[ai] = b
	}
	return bufs
}

// CheckMLIR executes the staged MLIR module (structured or cf-lowered) on
// fresh inputs and compares the resulting memory against the reference.
func (h *Harness) CheckMLIR(m *mlir.Module) error {
	bufs := h.freshMLIRBufs()
	if err := m.InterpretWithFuel(h.Top, h.Fuel, bufs...); err != nil {
		return err
	}
	for ai, b := range bufs {
		elem := h.shapes[ai].Elem
		for i := range b.F {
			if err := h.compareFloat(ai, i, b.F[i], elem); err != nil {
				return err
			}
		}
		for i := range b.I {
			if b.I[i] != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(b.I[i]), Want: float64(h.refI[ai][i]), Int: true}
			}
		}
	}
	return nil
}

// CheckLLVM executes the staged LLVM module on fresh memory and compares
// the resulting state against the reference. It recognizes both calling
// conventions the flows produce: the post-translate expanded memref
// descriptor ABI (base/aligned/offset/sizes/strides per argument) and the
// post-adaptor / C-frontend one-pointer-per-array-port ABI.
func (h *Harness) CheckLLVM(lm *llvm.Module) error {
	f := lm.FindFunc(h.Top)
	if f == nil {
		return fmt.Errorf("oracle: function @%s not found in LLVM module", h.Top)
	}
	mems := h.freshMems()
	args, err := h.llvmArgs(f, mems)
	if err != nil {
		return err
	}
	mc := interp.NewMachine(lm)
	if h.Fuel > 0 {
		mc.Fuel = h.Fuel
	}
	if _, _, err := mc.Run(context.Background(), h.Top, args...); err != nil {
		return err
	}
	for ai, mem := range mems {
		if err := h.compareMem(ai, mem); err != nil {
			return err
		}
	}
	return nil
}

// elemBytes is the in-memory size of one element of the argument type.
func elemBytes(t *mlir.Type) int64 {
	if t.Elem.Width == 32 {
		return 4
	}
	return 8
}

// freshMems allocates and fills one flat allocation per argument.
func (h *Harness) freshMems() []*interp.Mem {
	mems := make([]*interp.Mem, len(h.shapes))
	for ai, t := range h.shapes {
		n := t.NumElements()
		eb := elemBytes(t)
		mem := interp.NewMem(n * eb)
		for i := int64(0); i < n; i++ {
			switch {
			case t.Elem.IsFloat() && eb == 4:
				mem.SetFloat32(int(i), float32(fillFloat(ai, int(i), t.Elem)))
			case t.Elem.IsFloat():
				mem.SetFloat64(int(i), fillFloat(ai, int(i), t.Elem))
			case eb == 4:
				mem.SetInt32(int(i), int32(fillInt(ai, int(i))))
			default:
				binary.LittleEndian.PutUint64(mem.Bytes[i*8:], uint64(fillInt(ai, int(i))))
			}
		}
		mems[ai] = mem
	}
	return mems
}

// llvmArgs synthesizes the call arguments for f over mems, dispatching on
// the parameter count to pick the ABI.
func (h *Harness) llvmArgs(f *llvm.Function, mems []*interp.Mem) ([]interp.Arg, error) {
	descParams := 0
	for _, t := range h.shapes {
		descParams += translate.DescriptorParams(len(t.Shape))
	}
	switch len(f.Params) {
	case len(h.shapes):
		args := make([]interp.Arg, len(mems))
		for i, m := range mems {
			args[i] = interp.PtrArg(m, 0)
		}
		return args, nil
	case descParams:
		var args []interp.Arg
		for ai, t := range h.shapes {
			m := mems[ai]
			args = append(args, interp.PtrArg(m, 0), interp.PtrArg(m, 0), interp.IntArg(0))
			for _, d := range t.Shape {
				args = append(args, interp.IntArg(d))
			}
			stride := int64(1)
			strides := make([]int64, len(t.Shape))
			for d := len(t.Shape) - 1; d >= 0; d-- {
				strides[d] = stride
				stride *= t.Shape[d]
			}
			for _, s := range strides {
				args = append(args, interp.IntArg(s))
			}
		}
		return args, nil
	}
	// Shapes recovered from an adapted signature (ShapesOf) are flattened,
	// so their ranks cannot reconstruct the descriptor layout. The pattern
	// can: descriptor ports are a (base, aligned) pointer pair followed by
	// offset/size/stride scalars, and the generated code bakes static
	// strides in, so the scalar values are immaterial — only the slot count
	// matters.
	if args, ok := h.descriptorArgsByPattern(f, mems); ok {
		return args, nil
	}
	return nil, fmt.Errorf("oracle: @%s has %d params, matching neither the direct ABI (%d) nor the descriptor ABI (%d)",
		h.Top, len(f.Params), len(h.shapes), descParams)
}

// descriptorArgsByPattern synthesizes descriptor-ABI call arguments from
// the parameter type pattern alone. It reports false when the pattern does
// not spell exactly one (ptr, ptr) pair per harness argument.
func (h *Harness) descriptorArgsByPattern(f *llvm.Function, mems []*interp.Mem) ([]interp.Arg, bool) {
	args := make([]interp.Arg, 0, len(f.Params))
	port := 0
	expectAligned := false
	for _, p := range f.Params {
		switch {
		case p.Ty.IsPtr() && expectAligned:
			args = append(args, interp.PtrArg(mems[port], 0))
			port++
			expectAligned = false
		case p.Ty.IsPtr():
			if port >= len(mems) {
				return nil, false
			}
			args = append(args, interp.PtrArg(mems[port], 0))
			expectAligned = true
		case p.Ty.IsInt() && !expectAligned:
			args = append(args, interp.IntArg(0))
		default:
			return nil, false
		}
	}
	return args, port == len(mems) && !expectAligned
}

// compareMem checks one output allocation against the reference argument.
func (h *Harness) compareMem(ai int, mem *interp.Mem) error {
	t := h.shapes[ai]
	n := int(t.NumElements())
	switch {
	case t.Elem.IsFloat() && t.Elem.Width == 32:
		got := mem.Float32Slice()
		for i := 0; i < n; i++ {
			want := float32(h.refF[ai][i])
			if !interp.ULPEqual32(got[i], want, h.MaxULP) {
				return &Divergence{Arg: ai, Index: i, Got: float64(got[i]), Want: float64(want),
					ULP: interp.ULPDiff32(got[i], want)}
			}
		}
	case t.Elem.IsFloat():
		got := mem.Float64Slice()
		for i := 0; i < n; i++ {
			want := h.refF[ai][i]
			if !interp.ULPEqual(got[i], want, h.MaxULP) {
				return &Divergence{Arg: ai, Index: i, Got: got[i], Want: want,
					ULP: interp.ULPDiff64(got[i], want)}
			}
		}
	case t.Elem.Width == 32:
		got := mem.Int32Slice()
		for i := 0; i < n; i++ {
			if int64(got[i]) != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got[i]), Want: float64(h.refI[ai][i]), Int: true}
			}
		}
	default:
		for i := 0; i < n; i++ {
			got := int64(binary.LittleEndian.Uint64(mem.Bytes[i*8:]))
			if got != h.refI[ai][i] {
				return &Divergence{Arg: ai, Index: i, Got: float64(got), Want: float64(h.refI[ai][i]), Int: true}
			}
		}
	}
	return nil
}

// compareFloat checks a staged MLIR float element at the element width.
func (h *Harness) compareFloat(ai, i int, got float64, elem *mlir.Type) error {
	want := h.refF[ai][i]
	if elem.Width == 32 {
		g, w := float32(got), float32(want)
		if !interp.ULPEqual32(g, w, h.MaxULP) {
			return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff32(g, w)}
		}
		return nil
	}
	if !interp.ULPEqual(got, want, h.MaxULP) {
		return &Divergence{Arg: ai, Index: i, Got: got, Want: want, ULP: interp.ULPDiff64(got, want)}
	}
	return nil
}
