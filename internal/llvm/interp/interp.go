// Package interp executes llvm.Module functions on a byte-addressable memory
// model. Both HLS flows' final IR is run through it and compared against the
// Go reference implementations, standing in for RTL co-simulation.
package interp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/llvm"
)

// ErrFuel is returned when execution exhausts the machine's instruction
// budget — the typed form the differential oracle relies on so a
// miscompiled infinite loop surfaces as a diagnosable failure instead of a
// hang. Detect it with errors.Is.
var ErrFuel = errors.New("interp: out of fuel")

// TrapKind classifies a typed runtime trap.
type TrapKind string

// Trap kinds. Every fault the machine can hit at runtime maps to one of
// these, so the oracle can distinguish "the rewritten IR crashed" from "the
// oracle itself cannot model this IR".
const (
	TrapOOB         TrapKind = "out-of-bounds"
	TrapDivZero     TrapKind = "division-by-zero"
	TrapNilPtr      TrapKind = "nil-pointer"
	TrapUnreachable TrapKind = "unreachable"
	TrapCallDepth   TrapKind = "call-depth"
	TrapUndef       TrapKind = "undefined-value"
)

// Trap is a typed runtime fault: the executed IR performed an operation
// with no defined result (out-of-bounds access, division by zero, reaching
// unreachable). Extract it from an error chain with AsTrap.
type Trap struct {
	Kind   TrapKind
	Detail string
}

// Error implements error.
func (t *Trap) Error() string { return fmt.Sprintf("interp: %s: %s", t.Kind, t.Detail) }

// AsTrap extracts a typed trap from an error chain.
func AsTrap(err error) (*Trap, bool) {
	var t *Trap
	ok := errors.As(err, &t)
	return t, ok
}

func trapf(kind TrapKind, format string, args ...any) error {
	return &Trap{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// Mem is one allocation.
type Mem struct {
	Bytes []byte
}

// NewMem allocates n zeroed bytes.
func NewMem(n int64) *Mem { return &Mem{Bytes: make([]byte, n)} }

// Float64Slice interprets the memory as float64s.
func (m *Mem) Float64Slice() []float64 {
	out := make([]float64, len(m.Bytes)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.Bytes[i*8:]))
	}
	return out
}

// SetFloat64 stores v at element index i.
func (m *Mem) SetFloat64(i int, v float64) {
	binary.LittleEndian.PutUint64(m.Bytes[i*8:], math.Float64bits(v))
}

// Float32Slice interprets the memory as float32s.
func (m *Mem) Float32Slice() []float32 {
	out := make([]float32, len(m.Bytes)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(m.Bytes[i*4:]))
	}
	return out
}

// SetFloat32 stores v at element index i.
func (m *Mem) SetFloat32(i int, v float32) {
	binary.LittleEndian.PutUint32(m.Bytes[i*4:], math.Float32bits(v))
}

// Int32Slice interprets the memory as int32s.
func (m *Mem) Int32Slice() []int32 {
	out := make([]int32, len(m.Bytes)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(m.Bytes[i*4:]))
	}
	return out
}

// SetInt32 stores v at element index i.
func (m *Mem) SetInt32(i int, v int32) {
	binary.LittleEndian.PutUint32(m.Bytes[i*4:], uint32(v))
}

// val is a runtime value.
type val struct {
	i   int64
	f   float64
	mem *Mem
	off int64
}

// Arg is a function-call argument.
type Arg struct{ v val }

// IntArg passes an integer.
func IntArg(x int64) Arg { return Arg{val{i: x}} }

// FloatArg passes a float/double.
func FloatArg(x float64) Arg { return Arg{val{f: x}} }

// PtrArg passes a pointer to offset off within m.
func PtrArg(m *Mem, off int64) Arg { return Arg{val{mem: m, off: off}} }

// Machine executes functions of one module.
type Machine struct {
	Mod *llvm.Module
	// Fuel bounds the executed instruction count (default 500M).
	Fuel int64

	// Observe, when non-nil, is called with every instruction result the
	// machine assigns, including phis (the integer representation value;
	// float results report 0). Property tests hook it to compare dynamic
	// values against static analysis claims.
	Observe func(in *llvm.Instr, v int64)

	// ctx is the Run context, checked at block boundaries.
	ctx context.Context
	// progs holds the callees prepared during the current Run.
	progs map[*llvm.Function]*prog
}

// NewMachine returns a machine for mod.
func NewMachine(mod *llvm.Module) *Machine {
	return &Machine{Mod: mod, Fuel: 500_000_000}
}

// Run executes the named function. The returned value is meaningful only
// for non-void functions (i or f depending on the return type). ctx is
// honored cooperatively at basic-block boundaries — matching the pass
// managers' interrupt contract — so a cancelled or timed-out caller
// reclaims the machine at the next branch rather than after the run.
//
// Each Run prepares the functions it executes afresh (see prog), so the
// module may be mutated between runs.
func (mc *Machine) Run(ctx context.Context, name string, args ...Arg) (int64, float64, error) {
	f := mc.Mod.FindFunc(name)
	if f == nil {
		return 0, 0, fmt.Errorf("interp: function @%s not found", name)
	}
	if len(args) != len(f.Params) {
		return 0, 0, fmt.Errorf("interp: @%s takes %d params, got %d", name, len(f.Params), len(args))
	}
	vals := make([]val, len(args))
	for i, a := range args {
		vals[i] = a.v
	}
	p, err := mc.prepare(f)
	if err != nil {
		return 0, 0, err
	}
	mc.ctx = ctx
	r, err := mc.call(p, vals, 0)
	mc.progs = nil
	return r.i, r.f, err
}

// frame is one activation: the register file and its defined-bitmap.
type frame struct {
	p    *prog
	regs []val
	def  []bool
}

// get reads a slot, trapping on a value no executed instruction defined.
func (fr *frame) get(s int32) (val, error) {
	if !fr.def[s] {
		return val{}, fr.undef(s)
	}
	return fr.regs[s], nil
}

// get2 reads two slots in order, trapping like get.
func (fr *frame) get2(a, b int32) (*val, *val, error) {
	if !fr.def[a] {
		return nil, nil, fr.undef(a)
	}
	if !fr.def[b] {
		return nil, nil, fr.undef(b)
	}
	return &fr.regs[a], &fr.regs[b], nil
}

func (fr *frame) undef(s int32) error {
	return trapf(TrapUndef, "use of undefined value %s", fr.p.ident(s))
}

func (fr *frame) set(s int32, v val) {
	fr.regs[s] = v
	fr.def[s] = true
}

func (mc *Machine) call(p *prog, args []val, depth int) (val, error) {
	if depth > 100 {
		return val{}, trapf(TrapCallDepth, "call depth exceeded in @%s", p.f.Name)
	}
	if len(p.blocks) == 0 {
		return val{}, fmt.Errorf("interp: @%s has no body", p.f.Name)
	}
	// The outermost activation runs in the template itself, which no one
	// else sees (a recursive call into it prepares its own copy, see
	// callee); nested activations run in a copy.
	fr := &frame{p: p, regs: p.init, def: p.def}
	if depth > 0 {
		fr.regs, fr.def = slices.Clone(p.init), slices.Clone(p.def)
	}
	for i, s := range p.params {
		fr.set(s, args[i])
	}
	var phiVals []val
	cur, prev := int32(0), int32(noBlock)
	for {
		if mc.ctx != nil {
			if err := mc.ctx.Err(); err != nil {
				return val{}, err
			}
		}
		blk := &p.blocks[cur]
		// Phi nodes first, evaluated simultaneously.
		phiVals = phiVals[:0]
		for i := range blk.phis {
			ph := &blk.phis[i]
			idx := -1
			for j, from := range ph.from {
				if from == prev {
					idx = j
					break
				}
			}
			if idx < 0 {
				return val{}, fmt.Errorf("interp: phi in %%%s has no incoming for %%%s",
					blk.blk.Name, p.blockName(prev))
			}
			v, err := fr.get(ph.args[idx])
			if err != nil {
				return val{}, err
			}
			phiVals = append(phiVals, v)
		}
		for i := range blk.phis {
			ph := &blk.phis[i]
			fr.set(ph.dst, phiVals[i])
			if mc.Observe != nil {
				mc.Observe(ph.in, phiVals[i].i)
			}
		}

		for i := range blk.code {
			in := &blk.code[i]
			mc.Fuel--
			if mc.Fuel < 0 {
				return val{}, ErrFuel
			}
			switch in.op {
			case opBr:
				prev, cur = cur, in.b
			case opCondBr:
				c, err := fr.get(in.a)
				if err != nil {
					return val{}, err
				}
				if c.i != 0 {
					prev, cur = cur, in.b
				} else {
					prev, cur = cur, in.c
				}
			case opRet:
				if in.a < 0 {
					return val{}, nil
				}
				return fr.get(in.a)
			case opUnreachable:
				return val{}, trapf(TrapUnreachable, "reached unreachable in @%s", p.f.Name)
			default:
				v, err := mc.exec(fr, in, depth)
				if err != nil {
					return val{}, fmt.Errorf("in @%s %%%s: %w", p.f.Name, in.in.Name, err)
				}
				if in.dst >= 0 {
					fr.set(in.dst, v)
					if mc.Observe != nil {
						mc.Observe(in.in, v.i)
					}
				}
			}
		}
		if cur < 0 {
			return val{}, fmt.Errorf("interp: fell off block")
		}
	}
}

// callee returns f prepared for a call at depth > 0, preparing it on first
// use in this Run.
func (mc *Machine) callee(f *llvm.Function) (*prog, error) {
	if p := mc.progs[f]; p != nil {
		return p, nil
	}
	if mc.progs == nil {
		mc.progs = map[*llvm.Function]*prog{}
	}
	p, err := mc.prepare(f)
	if err != nil {
		return nil, err
	}
	mc.progs[f] = p
	return p, nil
}

func (p *prog) blockName(b int32) string {
	if b < 0 {
		return "<nil>"
	}
	return p.blocks[b].blk.Name
}

// exec runs one non-terminator instruction.
func (mc *Machine) exec(fr *frame, in *pinstr, depth int) (val, error) {
	switch in.op {
	case opAdd, opSub, opMul, opSDiv, opSRem, opAnd, opOr, opXor, opShl, opLShr, opAShr:
		l, r, err := fr.get2(in.a, in.b)
		if err != nil {
			return val{}, err
		}
		var x int64
		switch in.op {
		case opAdd:
			x = l.i + r.i
		case opSub:
			x = l.i - r.i
		case opMul:
			x = l.i * r.i
		case opSDiv:
			if r.i == 0 {
				return val{}, trapf(TrapDivZero, "sdiv by zero")
			}
			x = l.i / r.i
		case opSRem:
			if r.i == 0 {
				return val{}, trapf(TrapDivZero, "srem by zero")
			}
			x = l.i % r.i
		case opAnd:
			x = l.i & r.i
		case opOr:
			x = l.i | r.i
		case opXor:
			x = l.i ^ r.i
		case opShl:
			x = l.i << uint(r.i)
		case opLShr:
			// Logical shift acts on the type-width unsigned value: clear the
			// sign-extended high bits first, then shift in zeros.
			x = int64(uint64(l.i&in.imm) >> uint(r.i))
		case opAShr:
			x = l.i >> uint(r.i)
		}
		return val{i: x << in.shift >> in.shift}, nil

	case opFAdd, opFSub, opFMul, opFDiv:
		l, r, err := fr.get2(in.a, in.b)
		if err != nil {
			return val{}, err
		}
		var x float64
		switch in.op {
		case opFAdd:
			x = l.f + r.f
		case opFSub:
			x = l.f - r.f
		case opFMul:
			x = l.f * r.f
		case opFDiv:
			x = l.f / r.f
		}
		return val{f: in.round(x)}, nil

	case opFNeg:
		x, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return val{f: -x.f}, nil

	case opICmp, opFCmp:
		l, r, err := fr.get2(in.a, in.b)
		if err != nil {
			return val{}, err
		}
		switch {
		case in.pred == predUnknown:
			return val{}, in.predError()
		case in.op == opICmp:
			return val{i: b2i(icmp(in.pred, l.i, r.i))}, nil
		}
		return val{i: b2i(fcmp(in.pred, l.f, r.f))}, nil

	case opSelect:
		c, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		if c.i != 0 {
			return fr.get(in.b)
		}
		return fr.get(in.c)

	case opIntCast:
		x, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return val{i: x.i & in.imm << in.shift >> in.shift}, nil

	case opSIToFP:
		x, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return val{f: in.round(float64(x.i))}, nil

	case opFPToSI:
		x, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return val{i: int64(x.f)}, nil

	case opFPTrunc:
		x, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return val{f: in.round(x.f)}, nil

	case opMove:
		return fr.get(in.a)

	case opAlloca:
		return val{mem: NewMem(in.imm)}, nil

	case opGEP:
		base, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		if base.mem == nil {
			return val{}, trapf(TrapNilPtr, "gep on non-pointer value")
		}
		off := base.off + in.imm
		for k, s := range in.x.args {
			idx, err := fr.get(s)
			if err != nil {
				return val{}, err
			}
			off += idx.i * in.x.strides[k]
		}
		if in.x.err != "" {
			return val{}, errors.New(in.x.err)
		}
		return val{mem: base.mem, off: off}, nil

	case opLoad:
		p, err := fr.get(in.a)
		if err != nil {
			return val{}, err
		}
		return load(p, in)

	case opStore:
		v, p, err := fr.get2(in.a, in.b)
		if err != nil {
			return val{}, err
		}
		return val{}, store(*p, in, *v)

	case opExtractValue:
		// Aggregates are modeled as pointers here; extractvalue appears only
		// in descriptor manipulation which the flows do not execute.
		return val{}, fmt.Errorf("extractvalue is not executable in this model")

	case opCall:
		return mc.execCall(fr, in, depth)

	case opPhi:
		return val{}, fmt.Errorf("phi executed out of order")
	}
	return val{}, fmt.Errorf("unsupported opcode %s", in.in.Op)
}

// round rounds a float result through float32 when the result type is f32.
func (in *pinstr) round(x float64) float64 {
	if in.f32 {
		return float64(float32(x))
	}
	return x
}

func (mc *Machine) execCall(fr *frame, in *pinstr, depth int) (val, error) {
	args := make([]val, len(in.x.args))
	for i, s := range in.x.args {
		v, err := fr.get(s)
		if err != nil {
			return val{}, err
		}
		args[i] = v
	}
	callee := in.in.Callee
	switch in.intr {
	case callSqrt:
		return val{f: math.Sqrt(args[0].f)}, nil
	case callSqrtF:
		return val{f: float64(float32(math.Sqrt(args[0].f)))}, nil
	case callExp:
		return val{f: math.Exp(args[0].f)}, nil
	case callExpF:
		return val{f: float64(float32(math.Exp(args[0].f)))}, nil
	case callFma:
		return val{f: args[0].f*args[1].f + args[2].f}, nil
	case callFmaF:
		return val{f: float64(float32(args[0].f*args[1].f + args[2].f))}, nil
	case callFabs:
		return val{f: math.Abs(args[0].f)}, nil
	case callFabsF:
		return val{f: float64(float32(math.Abs(args[0].f)))}, nil
	case callMalloc:
		return val{mem: NewMem(args[0].i)}, nil
	case callNop:
		return val{}, nil
	case callMemset:
		m, off, n := args[0].mem, args[0].off, args[2].i
		if m == nil {
			return val{}, trapf(TrapNilPtr, "%s through nil pointer", callee)
		}
		if off < 0 || off+n > int64(len(m.Bytes)) {
			return val{}, trapf(TrapOOB, "%s out of bounds (off %d, n %d, alloc %d)", callee, off, n, len(m.Bytes))
		}
		for i := int64(0); i < n; i++ {
			m.Bytes[off+i] = byte(args[1].i)
		}
		return val{}, nil
	case callMemcpy:
		dst, src, n := args[0], args[1], args[2].i
		if dst.mem == nil || src.mem == nil {
			return val{}, trapf(TrapNilPtr, "%s through nil pointer", callee)
		}
		if dst.off < 0 || dst.off+n > int64(len(dst.mem.Bytes)) ||
			src.off < 0 || src.off+n > int64(len(src.mem.Bytes)) {
			return val{}, trapf(TrapOOB, "%s out of bounds (n %d)", callee, n)
		}
		copy(dst.mem.Bytes[dst.off:dst.off+n], src.mem.Bytes[src.off:src.off+n])
		return val{}, nil
	}
	if f := in.x.callee; f != nil && !f.IsDecl {
		p, err := mc.callee(f)
		if err != nil {
			return val{}, err
		}
		return mc.call(p, args, depth+1)
	}
	return val{}, fmt.Errorf("call to unknown function @%s", callee)
}

func load(p val, in *pinstr) (val, error) {
	if p.mem == nil {
		return val{}, trapf(TrapNilPtr, "load through nil pointer")
	}
	b := p.mem.Bytes
	o := p.off
	if o < 0 || o+in.imm > int64(len(b)) {
		return val{}, trapf(TrapOOB, "load out of bounds (off %d, size %d, alloc %d)", o, in.imm, len(b))
	}
	switch in.mem {
	case memF32:
		return val{f: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[o:])))}, nil
	case memF64:
		return val{f: math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))}, nil
	case memI8:
		return val{i: int64(int8(b[o]))}, nil
	case memI16:
		return val{i: int64(int16(binary.LittleEndian.Uint16(b[o:])))}, nil
	case memI32:
		return val{i: int64(int32(binary.LittleEndian.Uint32(b[o:])))}, nil
	case memI64:
		return val{i: int64(binary.LittleEndian.Uint64(b[o:]))}, nil
	}
	return val{}, fmt.Errorf("load of unsupported type %s", in.in.SrcElem)
}

func store(p val, in *pinstr, v val) error {
	if p.mem == nil {
		return trapf(TrapNilPtr, "store through nil pointer")
	}
	b := p.mem.Bytes
	o := p.off
	if o < 0 || o+in.imm > int64(len(b)) {
		return trapf(TrapOOB, "store out of bounds (off %d, size %d, alloc %d)", o, in.imm, len(b))
	}
	switch in.mem {
	case memF32:
		binary.LittleEndian.PutUint32(b[o:], math.Float32bits(float32(v.f)))
	case memF64:
		binary.LittleEndian.PutUint64(b[o:], math.Float64bits(v.f))
	case memI8:
		b[o] = byte(v.i)
	case memI16:
		binary.LittleEndian.PutUint16(b[o:], uint16(v.i))
	case memI32:
		binary.LittleEndian.PutUint32(b[o:], uint32(v.i))
	case memI64:
		binary.LittleEndian.PutUint64(b[o:], uint64(v.i))
	case memPtr:
		// Pointers are not persisted to memory in this model.
		return fmt.Errorf("storing pointers to memory is unsupported")
	default:
		return fmt.Errorf("store of unsupported type %s", in.in.Args[0].Type())
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func icmp(p pred, l, r int64) bool {
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
	case predULT:
		return uint64(l) < uint64(r)
	case predULE:
		return uint64(l) <= uint64(r)
	case predUGT:
		return uint64(l) > uint64(r)
	case predUGE:
		return uint64(l) >= uint64(r)
	}
	return false
}

// fcmp implements LLVM's sixteen fcmp predicates. Ordered predicates are
// false when either operand is NaN; unordered ones are true.
func fcmp(p pred, l, r float64) bool {
	uno := math.IsNaN(l) || math.IsNaN(r)
	switch p {
	case predFalse:
		return false
	case predOEQ:
		return l == r
	case predOGT:
		return l > r
	case predOGE:
		return l >= r
	case predOLT:
		return l < r
	case predOLE:
		return l <= r
	case predONE:
		return !uno && l != r
	case predORD:
		return !uno
	case predUEQ:
		return uno || l == r
	case predFUGT:
		return uno || l > r
	case predFUGE:
		return uno || l >= r
	case predFULT:
		return uno || l < r
	case predFULE:
		return uno || l <= r
	case predUNE:
		return l != r
	case predUNO:
		return uno
	case predTrue:
		return true
	}
	return false
}
