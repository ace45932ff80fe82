package mlir

import (
	"errors"
	"fmt"
	"math"
)

// ErrFuel is returned when an interpretation exceeds its step budget —
// the signal that a (possibly corrupted) module diverged into an infinite
// loop instead of terminating. Callers distinguish it from semantic errors
// with errors.Is.
var ErrFuel = errors.New("mlir interp: out of fuel")

// DefaultFuel bounds the number of ops a single Interpret call may
// execute. Generous for every polybench preset, small enough that a
// miscompiled loop nest cannot hang a differential run.
const DefaultFuel = 200_000_000

// MaxMemElements bounds the memref elements one interpreted execution may
// allocate, counting its arguments and every memref.alloc it executes:
// 4 Mi elements, 32 MiB as float64. Kernel
// text can come from untrusted clients, so a declared shape must not size
// an allocation unchecked. The largest PolyBench dataset, 3mm at SMALL,
// needs 1,692 elements.
const MaxMemElements = 1 << 22

// ErrMemBudget marks an execution refused because its memrefs would hold
// more than MaxMemElements elements. It is a limit of the interpreter, not
// a property of the program's semantics.
var ErrMemBudget = errors.New("memref elements exceed the interpreter budget")

// CheckMemBudget reports an error wrapping ErrMemBudget when memrefs of the
// given types together hold more than MaxMemElements elements.
func CheckMemBudget(tys ...*Type) error {
	left := int64(MaxMemElements)
	for _, t := range tys {
		if err := chargeElements(t, &left); err != nil {
			return err
		}
	}
	return nil
}

// chargeElements takes t's element count from *left, failing when the
// count overflows or exceeds what is left.
func chargeElements(t *Type, left *int64) error {
	n, ok := t.CheckedNumElements()
	if !ok || n > *left {
		return fmt.Errorf("%s: %w (%d per execution)", t, ErrMemBudget, MaxMemElements)
	}
	*left -= n
	return nil
}

// MemBuf is a flat row-major buffer backing a memref during interpretation.
type MemBuf struct {
	Ty *Type
	F  []float64 // used when the element type is float
	I  []int64   // used when the element type is int/index
}

// NewMemBuf allocates a zeroed buffer for a static memref type.
func NewMemBuf(ty *Type) *MemBuf {
	if !ty.HasStaticShape() {
		panic("mlir: NewMemBuf requires a static memref type")
	}
	n := ty.NumElements()
	b := &MemBuf{Ty: ty}
	if ty.Elem.IsFloat() {
		b.F = make([]float64, n)
	} else {
		b.I = make([]int64, n)
	}
	return b
}

// linearIndex converts multi-dimensional indices to a row-major offset.
func (b *MemBuf) linearIndex(idxs []int64) (int64, error) {
	if len(idxs) != len(b.Ty.Shape) {
		return 0, fmt.Errorf("index rank %d != memref rank %d", len(idxs), len(b.Ty.Shape))
	}
	off := int64(0)
	for i, x := range idxs {
		if x < 0 || x >= b.Ty.Shape[i] {
			return 0, fmt.Errorf("index %d out of bounds [0,%d) in dim %d", x, b.Ty.Shape[i], i)
		}
		off = off*b.Ty.Shape[i] + x
	}
	return off, nil
}

// interpVal is a dynamically-typed interpreter value.
type interpVal struct {
	i   int64
	f   float64
	buf *MemBuf
}

// Interpret executes the named function on the given memref arguments,
// mutating them in place. Scalar arguments and results are not supported
// (the HLS kernels communicate exclusively through memrefs). Both
// structured (affine/scf) and cf-lowered multi-block bodies execute;
// execution is bounded by DefaultFuel.
func (m *Module) Interpret(funcName string, args ...*MemBuf) error {
	return m.InterpretWithFuel(funcName, DefaultFuel, args...)
}

// InterpretWithFuel is Interpret with an explicit step budget; exceeding
// it returns an error satisfying errors.Is(err, ErrFuel).
//
// Each call first prepares the function in one linear pass (see mprog) and
// then runs it on a dense register file.
func (m *Module) InterpretWithFuel(funcName string, fuel int64, args ...*MemBuf) error {
	f := m.FindFunc(funcName)
	if f == nil {
		return fmt.Errorf("interp: function %q not found", funcName)
	}
	body := FuncBody(f)
	if len(args) != len(body.Args) {
		return fmt.Errorf("interp: %q takes %d args, got %d", funcName, len(body.Args), len(args))
	}
	for i, a := range body.Args {
		if !a.Type().IsMemRef() {
			return fmt.Errorf("interp: argument %d is not a memref", i)
		}
		if !a.Type().Equal(args[i].Ty) {
			return fmt.Errorf("interp: argument %d type mismatch: %s vs %s", i, a.Type(), args[i].Ty)
		}
	}
	it := &interpreter{fuel: fuel, memLeft: MaxMemElements}
	for _, a := range args {
		if err := chargeElements(a.Ty, &it.memLeft); err != nil {
			return fmt.Errorf("interp: %w", err)
		}
	}
	p := prepareFunc(f)
	it.regs = make([]interpVal, p.nslots)
	for i, s := range p.args {
		it.regs[s] = interpVal{buf: args[i]}
	}
	if p.blocks == nil {
		return it.run(p.body)
	}
	return it.runCF(p.blocks)
}

type interpreter struct {
	regs []interpVal
	fuel int64
	// memLeft is the number of memref elements the execution may still
	// allocate (see MaxMemElements).
	memLeft int64
	// bind snapshots branch operands before block arguments are written.
	bind []interpVal
}

// runCF executes a cf-lowered multi-block function body: straight-line ops
// run in order, and branch terminators transfer control, binding their
// operands to the successor's block arguments (the SSA form of phi nodes).
func (it *interpreter) runCF(blocks []mblock) error {
	cur := &blocks[0]
	for {
		if cur.empty {
			return fmt.Errorf("interp: block without terminator")
		}
		if err := it.run(cur.ops); err != nil {
			return err
		}
		t := &cur.term
		if it.fuel--; it.fuel < 0 {
			return ErrFuel
		}
		if t.err != "" {
			return errors.New(t.err)
		}
		if t.ret {
			return nil
		}
		e := &t.edges[0]
		if len(t.edges) == 2 && it.regs[t.cond].i == 0 {
			e = &t.edges[1]
		}
		it.bindBlockArgs(e)
		cur = &blocks[e.succ]
	}
}

// bindBlockArgs copies branch operand values into the successor's block
// arguments. Values are snapshotted before any argument is overwritten so
// a branch whose operands read the target's current arguments (a loop
// latch) binds from the pre-branch state.
func (it *interpreter) bindBlockArgs(e *medge) {
	it.bind = it.bind[:0]
	for _, s := range e.srcs {
		it.bind = append(it.bind, it.regs[s])
	}
	for i, d := range e.dsts {
		it.regs[d] = it.bind[i]
	}
}

func (it *interpreter) run(ops []mop) error {
	for i := range ops {
		if err := it.runOp(&ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// eval evaluates a prepared affine map on the current operand values into
// the map's reusable result buffer.
func (it *interpreter) eval(pm *pmap) ([]int64, error) {
	if pm.bad {
		return nil, fmt.Errorf("interp: affine map %s applied to %d operands", pm.m, len(pm.ops))
	}
	for i, s := range pm.ops {
		pm.in[i] = it.regs[s].i
	}
	if pm.m == nil {
		return pm.out, nil
	}
	dims, syms := pm.in[:pm.m.NumDims], pm.in[pm.m.NumDims:]
	for i, e := range pm.m.Exprs {
		pm.out[i] = e.Eval(dims, syms)
	}
	return pm.out, nil
}

func (it *interpreter) runOp(op *mop) error {
	if it.fuel--; it.fuel < 0 {
		return ErrFuel
	}
	r := it.regs
	switch op.code {
	case mNop:
		return nil

	case mConstI:
		r[op.dst] = interpVal{i: op.imm}
		return nil

	case mConstF:
		r[op.dst] = interpVal{f: math.Float64frombits(uint64(op.imm))}
		return nil

	case mAddI, mSubI, mMulI, mDivSI, mRemSI, mMinSI, mMaxSI:
		l, rr := r[op.a].i, r[op.b].i
		var v int64
		switch op.code {
		case mAddI:
			v = l + rr
		case mSubI:
			v = l - rr
		case mMulI:
			v = l * rr
		case mDivSI:
			if rr == 0 {
				return fmt.Errorf("interp: division by zero")
			}
			v = l / rr
		case mRemSI:
			if rr == 0 {
				return fmt.Errorf("interp: remainder by zero")
			}
			v = l % rr
		case mMinSI:
			v = min(l, rr)
		case mMaxSI:
			v = max(l, rr)
		}
		r[op.dst] = interpVal{i: v}
		return nil

	case mAddF, mSubF, mMulF, mDivF:
		l, rr := r[op.a].f, r[op.b].f
		var v float64
		switch op.code {
		case mAddF:
			v = l + rr
		case mSubF:
			v = l - rr
		case mMulF:
			v = l * rr
		case mDivF:
			v = l / rr
		}
		r[op.dst] = interpVal{f: op.round(v)}
		return nil

	case mNegF:
		r[op.dst] = interpVal{f: -r[op.a].f}
		return nil

	case mSqrt:
		r[op.dst] = interpVal{f: op.round(math.Sqrt(r[op.a].f))}
		return nil

	case mExp:
		r[op.dst] = interpVal{f: op.round(math.Exp(r[op.a].f))}
		return nil

	case mCmpI, mCmpF:
		var ok bool
		switch {
		case op.pred == predUnknown:
			p, _ := op.op.StringAttr(AttrPredicate)
			return fmt.Errorf("interp: unsupported %s predicate %q", op.op.Name, p)
		case op.code == mCmpI:
			ok = intPred(op.pred, r[op.a].i, r[op.b].i)
		default:
			ok = floatPred(op.pred, r[op.a].f, r[op.b].f)
		}
		r[op.dst] = interpVal{i: boolToInt(ok)}
		return nil

	case mSelect:
		if r[op.a].i != 0 {
			r[op.dst] = r[op.b]
		} else {
			r[op.dst] = r[op.c]
		}
		return nil

	case mIndexCast:
		r[op.dst] = interpVal{i: r[op.a].i}
		return nil

	case mSIToFP:
		r[op.dst] = interpVal{f: op.round(float64(r[op.a].i))}
		return nil

	case mFPToSI:
		r[op.dst] = interpVal{i: int64(r[op.a].f)}
		return nil

	case mMove:
		r[op.dst] = r[op.a]
		return nil

	case mTruncF:
		r[op.dst] = interpVal{f: op.round(r[op.a].f)}
		return nil

	case mAlloc:
		ty := op.op.Result(0).Type()
		if err := chargeElements(ty, &it.memLeft); err != nil {
			return fmt.Errorf("interp: memref.alloc: %w", err)
		}
		r[op.dst] = interpVal{buf: NewMemBuf(ty)}
		return nil

	case mLoad:
		buf := r[op.a].buf
		if buf == nil {
			return fmt.Errorf("interp: load from unmaterialized memref")
		}
		off, err := it.offset(op, buf)
		if err != nil {
			return err
		}
		if buf.Ty.Elem.IsFloat() {
			r[op.dst] = interpVal{f: buf.F[off]}
		} else {
			r[op.dst] = interpVal{i: buf.I[off]}
		}
		return nil

	case mStore:
		buf := r[op.a].buf
		if buf == nil {
			return fmt.Errorf("interp: store to unmaterialized memref")
		}
		off, err := it.offset(op, buf)
		if err != nil {
			return err
		}
		if buf.Ty.Elem.IsFloat() {
			buf.F[off] = truncToElem(r[op.b].f, buf.Ty.Elem)
		} else {
			buf.I[off] = r[op.b].i
		}
		return nil

	case mApply:
		v, err := it.eval(op.m)
		if err != nil {
			return err
		}
		r[op.dst] = interpVal{i: v[0]}
		return nil

	case mAffineFor:
		lo, err := it.eval(op.m)
		if err != nil {
			return err
		}
		hi, err := it.eval(op.hi)
		if err != nil {
			return err
		}
		for i := lo[0]; i < hi[0]; i += op.imm {
			it.regs[op.iv] = interpVal{i: i}
			if err := it.run(op.body); err != nil {
				return err
			}
		}
		return nil

	case mSCFFor:
		lo, hi, step := r[op.a].i, r[op.b].i, r[op.c].i
		if step <= 0 {
			return fmt.Errorf("interp: non-positive scf.for step")
		}
		for i := lo; i < hi; i += step {
			it.regs[op.iv] = interpVal{i: i}
			if err := it.run(op.body); err != nil {
				return err
			}
		}
		return nil

	case mSCFIf:
		if r[op.a].i != 0 {
			return it.run(op.body)
		}
		return it.run(op.els)

	case mMalformed:
		return fmt.Errorf("interp: malformed %s", op.op.Name)

	case mCall:
		return fmt.Errorf("interp: func.call is not supported")
	}
	return fmt.Errorf("interp: unsupported op %s", op.op.Name)
}

// offset is the row-major element offset an access addresses in buf.
func (it *interpreter) offset(op *mop, buf *MemBuf) (int64, error) {
	idxs, err := it.eval(op.m)
	if err != nil {
		return 0, err
	}
	off, err := buf.linearIndex(idxs)
	if err != nil {
		return 0, fmt.Errorf("interp: %s: %w", op.op.Name, err)
	}
	return off, nil
}

// truncToElem rounds a float64 through the precision of the element type so
// f32 kernels behave like f32 hardware.
func truncToElem(v float64, ty *Type) float64 {
	if ty != nil && ty.IsFloat() && ty.Width == 32 {
		return float64(float32(v))
	}
	return v
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intPred(p cmpPred, l, r int64) bool {
	switch p {
	case predEQ:
		return l == r
	case predNE:
		return l != r
	case predSLT:
		return l < r
	case predSLE:
		return l <= r
	case predSGT:
		return l > r
	case predSGE:
		return l >= r
	}
	return false
}

func floatPred(p cmpPred, l, r float64) bool {
	switch p {
	case predOEQ:
		return l == r
	case predONE:
		return !math.IsNaN(l) && !math.IsNaN(r) && l != r
	case predOLT:
		return l < r
	case predOLE:
		return l <= r
	case predOGT:
		return l > r
	case predOGE:
		return l >= r
	}
	return false
}
