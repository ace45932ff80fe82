package interp

import (
	"fmt"

	"repro/internal/llvm"
)

// prog is a function prepared for execution in one linear pass: every
// parameter, instruction result and constant operand owns a dense register
// slot (constants preloaded), branch targets and phi incomings are block
// indices, and opcodes, predicates, callees and memory types are decoded
// into small enums. The machine then runs on a []val register file plus a
// defined-bitmap instead of hashing llvm.Value keys.
type prog struct {
	f      *llvm.Function
	params []int32 // slot of each parameter
	blocks []pblock
	init   []val  // register-file template with constants preloaded
	def    []bool // defined-bitmap template: true for constant slots
	// vals holds the value behind each slot, to name an undefined one in
	// errors.
	vals []llvm.Value
}

// ident renders the value behind a slot.
func (p *prog) ident(s int32) string { return p.vals[s].Ident() }

// pblock is a prepared basic block. Block 0 is the entry. Every prepared
// block ends in a terminator: preparation rejects a reachable block
// without one.
type pblock struct {
	blk  *llvm.Block
	phis []pphi
	code []pinstr // up to and including the first terminator
}

// pphi is a leading phi: from[i] is the predecessor block index whose edge
// selects slot args[i].
type pphi struct {
	in   *llvm.Instr
	dst  int32
	from []int32
	args []int32
}

// Block indices that are not blocks of the prepared function.
const (
	noBlock      = -1 // nil: the entry's predecessor, or a nil branch target
	foreignBlock = -2 // a phi incoming block that is never a predecessor
)

type opcode uint8

const (
	opUnsupported opcode = iota
	opAdd
	opSub
	opMul
	opSDiv
	opSRem
	opAnd
	opOr
	opXor
	opShl
	opLShr
	opAShr
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFNeg
	opICmp
	opFCmp
	opSelect
	opIntCast // zext, sext, trunc: (x & mask) sign-extended from 64-shift bits
	opSIToFP
	opFPToSI
	opFPTrunc
	opMove // fpext, bitcast, inttoptr, ptrtoint: the operand unchanged
	opAlloca
	opGEP
	opLoad
	opStore
	opExtractValue
	opCall
	opPhi // a phi after the leading group: executed out of order
	opBr
	opCondBr
	opRet
	opUnreachable
)

// pred is a decoded icmp/fcmp predicate.
type pred uint8

const (
	predUnknown pred = iota
	predEQ
	predNE
	predSLT
	predSLE
	predSGT
	predSGE
	predULT
	predULE
	predUGT
	predUGE
	// fcmp: ordered (o*) predicates are false on NaN, unordered (u*)
	// ones true; predFU* are fcmp's unordered orders.
	predFalse
	predOEQ
	predOGT
	predOGE
	predOLT
	predOLE
	predONE
	predORD
	predUEQ
	predFUGT
	predFUGE
	predFULT
	predFULE
	predUNE
	predUNO
	predTrue
)

var icmpPreds = map[string]pred{
	"eq": predEQ, "ne": predNE,
	"slt": predSLT, "sle": predSLE, "sgt": predSGT, "sge": predSGE,
	"ult": predULT, "ule": predULE, "ugt": predUGT, "uge": predUGE,
}

var fcmpPreds = map[string]pred{
	"false": predFalse, "oeq": predOEQ, "ogt": predOGT, "oge": predOGE,
	"olt": predOLT, "ole": predOLE, "one": predONE, "ord": predORD,
	"ueq": predUEQ, "ugt": predFUGT, "uge": predFUGE, "ult": predFULT,
	"ule": predFULE, "une": predUNE, "uno": predUNO, "true": predTrue,
}

// memKind is the decoded scalar type of a load or store.
type memKind uint8

const (
	memUnsupported memKind = iota
	memF32
	memF64
	memI8
	memI16
	memI32
	memI64
	memPtr
)

// intrinsic is a decoded callee the machine implements natively.
type intrinsic uint8

const (
	callUser intrinsic = iota
	callSqrt
	callSqrtF
	callExp
	callExpF
	callFma
	callFmaF
	callFabs
	callFabsF
	callMalloc
	callNop
	callMemset
	callMemcpy
)

var intrinsics = map[string]intrinsic{
	"llvm.sqrt.f64": callSqrt, "sqrt": callSqrt,
	"llvm.sqrt.f32": callSqrtF, "sqrtf": callSqrtF,
	"llvm.exp.f64": callExp, "exp": callExp,
	"llvm.exp.f32": callExpF, "expf": callExpF,
	"llvm.fmuladd.f64": callFma, "fma": callFma,
	"llvm.fmuladd.f32": callFmaF, "fmaf": callFmaF,
	"llvm.fabs.f64": callFabs, "fabs": callFabs,
	"llvm.fabs.f32": callFabsF, "fabsf": callFabsF,
	"malloc": callMalloc,
	"free":   callNop, "llvm.lifetime.start.p0": callNop, "llvm.lifetime.end.p0": callNop,
	"llvm.memset.p0.i64": callMemset, "memset": callMemset,
	"llvm.memcpy.p0.p0.i64": callMemcpy, "memcpy": callMemcpy,
}

// pinstr is a prepared non-phi instruction. Operand slots a, b, c cover
// the fixed-arity opcodes (a missing operand is slot -1 and faults only if
// executed); branches keep their targets in b and c. The rare variadic
// operands (gep indices, call arguments) live in x.
type pinstr struct {
	op      opcode
	pred    pred
	mem     memKind
	intr    intrinsic
	f32     bool  // round the float result through float32
	shift   uint8 // sign-extend the integer result from 64-shift bits
	dst     int32 // result slot, -1 when the instruction defines no value
	a, b, c int32
	// imm is the source type-width mask of lshr/zext, the byte size of
	// alloca/load/store, and the constant byte offset of gep.
	imm int64
	x   *pext
	in  *llvm.Instr
}

// pext holds a gep's or call's variadic operands.
type pext struct {
	args    []int32
	strides []int64 // gep: byte stride per args entry
	err     string  // gep: the type walk's failure, reported after args
	callee  *llvm.Function
}

// preparer numbers one function's values into slots. Each constant
// operand gets its own preloaded slot; instruction results and parameters
// are numbered once. Phi incomings, gep and call operands are carved out
// of shared pools sized by a counting pass, so preparing a function takes
// a handful of allocations however many instructions it has.
type preparer struct {
	p         *prog
	mod       *llvm.Module
	blocks    map[*llvm.Block]int32
	instrSlot map[*llvm.Instr]int32
	paramSlot map[*llvm.Param]int32

	ints    []int32
	strides []int64
	phis    []pphi
	exts    []pext
}

// carve returns the pool elements appended since start as their own
// slice; a pool that had to grow leaves earlier carvings valid.
func carve[T any](pool []T, start int) []T { return pool[start:len(pool):len(pool)] }

func (pr *preparer) slot(v llvm.Value) int32 {
	switch x := v.(type) {
	case *llvm.ConstInt:
		return pr.newSlot(v, val{i: x.Val}, true)
	case *llvm.ConstFloat:
		return pr.newSlot(v, val{f: x.Val}, true)
	case *llvm.Undef:
		return pr.newSlot(v, val{}, true)
	case *llvm.Instr:
		s, ok := pr.instrSlot[x]
		if !ok {
			s = pr.newSlot(v, val{}, false)
			pr.instrSlot[x] = s
		}
		return s
	case *llvm.Param:
		s, ok := pr.paramSlot[x]
		if !ok {
			s = pr.newSlot(v, val{}, false)
			pr.paramSlot[x] = s
		}
		return s
	}
	// Nothing executed defines any other kind of value.
	return pr.newSlot(v, val{}, false)
}

func (pr *preparer) newSlot(v llvm.Value, x val, def bool) int32 {
	pr.p.init = append(pr.p.init, x)
	pr.p.def = append(pr.p.def, def)
	pr.p.vals = append(pr.p.vals, v)
	return int32(len(pr.p.init) - 1)
}

// arg is the slot of operand k, or -1 when the instruction has no such
// operand.
func (pr *preparer) arg(in *llvm.Instr, k int) int32 {
	if k >= len(in.Args) {
		return -1
	}
	return pr.slot(in.Args[k])
}

func (pr *preparer) block(b *llvm.Block) int32 {
	if b == nil {
		return noBlock
	}
	if i, ok := pr.blocks[b]; ok {
		return i
	}
	i := int32(len(pr.p.blocks))
	pr.blocks[b] = i
	pr.p.blocks = append(pr.p.blocks, pblock{blk: b})
	return i
}

// terminator returns the first terminator of b: the machine never executes
// past it.
func terminator(b *llvm.Block) (int, *llvm.Instr) {
	for i, in := range b.Instrs {
		if in.IsTerminator() {
			return i, in
		}
	}
	return len(b.Instrs), nil
}

// prepare builds f's prepared form. Blocks are the ones reachable by
// following branch targets from the entry, the only ones the machine can
// execute. A reachable block without a terminator is an error: verified
// IR never has one, and the machine has no defined successor for it.
func (mc *Machine) prepare(f *llvm.Function) (*prog, error) {
	// Size every pool by a counting pass: results and parameters,
	// constant operands, pooled operands (phi incomings count twice, for
	// block and value), phis, and gep/call extensions.
	n, nconst, nints, nstrides, nphi, next := len(f.Params), 0, 0, 0, 0, 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch a.(type) {
				case *llvm.Instr, *llvm.Param:
				default:
					nconst++
				}
			}
			switch in.Op {
			case llvm.OpPhi:
				nphi++
				nints += 2 * len(in.Args)
			case llvm.OpGEP:
				next++
				nints += len(in.Args)
				nstrides += len(in.Args)
			case llvm.OpCall:
				next++
				nints += len(in.Args)
			}
		}
	}
	slots := n + nconst // parameters, instruction results, constant operands
	p := &prog{f: f, init: make([]val, 0, slots), def: make([]bool, 0, slots), vals: make([]llvm.Value, 0, slots)}
	pr := &preparer{p: p, mod: mc.Mod, blocks: make(map[*llvm.Block]int32, len(f.Blocks)),
		instrSlot: make(map[*llvm.Instr]int32, n), paramSlot: make(map[*llvm.Param]int32, len(f.Params)),
		ints: make([]int32, 0, nints), strides: make([]int64, 0, nstrides),
		phis: make([]pphi, 0, nphi), exts: make([]pext, 0, next)}
	for _, prm := range f.Params {
		p.params = append(p.params, pr.slot(prm))
	}
	if entry := f.Entry(); entry != nil {
		pr.block(entry)
		for i := 0; i < len(p.blocks); i++ {
			if _, t := terminator(p.blocks[i].blk); t != nil && (t.Op == llvm.OpBr || t.Op == llvm.OpCondBr) {
				for _, s := range t.Blocks {
					pr.block(s)
				}
			}
		}
	}
	code := make([]pinstr, 0, n)
	for bi := range p.blocks {
		pb := &p.blocks[bi]
		end, t := terminator(pb.blk)
		if t == nil {
			return nil, fmt.Errorf("interp: block %%%s in @%s has no terminator", pb.blk.Name, f.Name)
		}
		instrs := pb.blk.Instrs[:end+1]
		phiStart := len(pr.phis)
		for len(instrs) > 0 && instrs[0].Op == llvm.OpPhi {
			in := instrs[0]
			ph := pphi{in: in, dst: pr.slot(in)}
			start := len(pr.ints)
			for _, from := range in.Blocks {
				idx, ok := pr.blocks[from]
				switch {
				case from == nil:
					idx = noBlock
				case !ok:
					idx = foreignBlock
				}
				pr.ints = append(pr.ints, idx)
			}
			ph.from = carve(pr.ints, start)
			start = len(pr.ints)
			for i := range in.Blocks {
				pr.ints = append(pr.ints, pr.arg(in, i))
			}
			ph.args = carve(pr.ints, start)
			pr.phis = append(pr.phis, ph)
			instrs = instrs[1:]
		}
		pb.phis = carve(pr.phis, phiStart)
		start := len(code)
		for _, in := range instrs {
			code = append(code, pinstr{})
			pr.decode(&code[len(code)-1], in)
		}
		pb.code = carve(code, start)
	}
	return p, nil
}

var opcodes = map[llvm.Opcode]opcode{
	llvm.OpAdd: opAdd, llvm.OpSub: opSub, llvm.OpMul: opMul, llvm.OpSDiv: opSDiv, llvm.OpSRem: opSRem,
	llvm.OpAnd: opAnd, llvm.OpOr: opOr, llvm.OpXor: opXor,
	llvm.OpShl: opShl, llvm.OpLShr: opLShr, llvm.OpAShr: opAShr,
	llvm.OpFAdd: opFAdd, llvm.OpFSub: opFSub, llvm.OpFMul: opFMul, llvm.OpFDiv: opFDiv, llvm.OpFNeg: opFNeg,
	llvm.OpICmp: opICmp, llvm.OpFCmp: opFCmp, llvm.OpSelect: opSelect,
	llvm.OpZExt: opIntCast, llvm.OpSExt: opIntCast, llvm.OpTrunc: opIntCast,
	llvm.OpSIToFP: opSIToFP, llvm.OpFPToSI: opFPToSI, llvm.OpFPTrunc: opFPTrunc,
	llvm.OpFPExt: opMove, llvm.OpBitcast: opMove, llvm.OpIntToPtr: opMove, llvm.OpPtrToInt: opMove,
	llvm.OpAlloca: opAlloca, llvm.OpGEP: opGEP, llvm.OpLoad: opLoad, llvm.OpStore: opStore,
	llvm.OpExtractValue: opExtractValue, llvm.OpCall: opCall, llvm.OpPhi: opPhi,
	llvm.OpBr: opBr, llvm.OpCondBr: opCondBr, llvm.OpRet: opRet, llvm.OpUnreachable: opUnreachable,
}

// decode prepares one instruction after its block's leading phis.
func (pr *preparer) decode(pi *pinstr, in *llvm.Instr) {
	*pi = pinstr{op: opcodes[in.Op], in: in, dst: -1, a: pr.arg(in, 0), b: pr.arg(in, 1), c: pr.arg(in, 2),
		f32: in.Ty != nil && in.Ty.Kind == llvm.KindFloat, shift: intShift(in.Ty), imm: -1}
	if in.HasResult() {
		pi.dst = pr.slot(in)
	}
	switch in.Op {
	case llvm.OpLShr:
		pi.imm = intMask(in.Ty)
	case llvm.OpICmp:
		pi.pred = icmpPreds[in.Pred]
	case llvm.OpFCmp:
		pi.pred = fcmpPreds[in.Pred]
	case llvm.OpZExt:
		pi.shift = 0
		if len(in.Args) > 0 {
			pi.imm = intMask(in.Args[0].Type())
		}
	case llvm.OpSExt:
		pi.shift = 0
	case llvm.OpAlloca:
		pi.imm = sizeOf(in.SrcElem)
	case llvm.OpGEP:
		pi.imm = 0
		pi.x = pr.decodeGEP(pi, in)
	case llvm.OpLoad:
		pi.mem, pi.imm = decodeMem(in.SrcElem), sizeOf(in.SrcElem)
	case llvm.OpStore:
		if len(in.Args) > 0 {
			t := in.Args[0].Type()
			pi.mem, pi.imm = decodeMem(t), sizeOf(t)
		}
	case llvm.OpCall:
		pi.intr, pi.x = intrinsics[in.Callee], pr.ext()
		start := len(pr.ints)
		for k := range in.Args {
			pr.ints = append(pr.ints, pr.arg(in, k))
		}
		pi.x.args = carve(pr.ints, start)
		if pi.intr == callUser {
			pi.x.callee = pr.mod.FindFunc(in.Callee)
		}
	case llvm.OpBr:
		pi.b = pr.target(in, 0)
	case llvm.OpCondBr:
		pi.b, pi.c = pr.target(in, 0), pr.target(in, 1)
	}
}

func (pr *preparer) target(in *llvm.Instr, k int) int32 {
	if k >= len(in.Blocks) {
		return noBlock
	}
	return pr.block(in.Blocks[k])
}

// ext returns a fresh pext from the pool.
func (pr *preparer) ext() *pext {
	pr.exts = append(pr.exts, pext{})
	return &pr.exts[len(pr.exts)-1]
}

// decodeGEP folds the gep type walk into a constant byte offset (added to
// pi.imm) plus one byte stride per non-constant index. A walk that cannot
// be folded (a scalar step, a non-constant or out-of-range struct field)
// keeps the indices up to the failing one and reports the failure after
// evaluating them, as the unfolded walk would.
func (pr *preparer) decodeGEP(pi *pinstr, in *llvm.Instr) *pext {
	x, argStart, strideStart := pr.ext(), len(pr.ints), len(pr.strides)
	done := func(err string) *pext {
		x.args, x.strides, x.err = carve(pr.ints, argStart), carve(pr.strides, strideStart), err
		return x
	}
	index := func(k int, stride int64) {
		if c, ok := in.Args[k].(*llvm.ConstInt); ok {
			pi.imm += c.Val * stride
			return
		}
		pr.ints, pr.strides = append(pr.ints, pr.slot(in.Args[k])), append(pr.strides, stride)
	}
	t := in.SrcElem
	for k := 1; k < len(in.Args); k++ {
		switch {
		case k == 1:
			index(k, sizeOf(t))
		case t != nil && t.IsArray():
			t = t.Elem
			index(k, t.SizeBytes())
		case t != nil && t.IsStruct():
			c, ok := in.Args[k].(*llvm.ConstInt)
			if !ok || c.Val < 0 || c.Val >= int64(len(t.Fields)) {
				index(k, 0)
				return done("gep struct field index is not a constant in range")
			}
			for j := int64(0); j < c.Val; j++ {
				pi.imm += t.Fields[j].SizeBytes()
			}
			t = t.Fields[c.Val]
		default:
			index(k, 0)
			return done("gep steps through scalar type")
		}
	}
	return done("")
}

func decodeMem(t *llvm.Type) memKind {
	switch {
	case t == nil:
		return memUnsupported
	case t.Kind == llvm.KindFloat:
		return memF32
	case t.Kind == llvm.KindDouble:
		return memF64
	case t.IsInt():
		switch t.SizeBytes() {
		case 1:
			return memI8
		case 2:
			return memI16
		case 4:
			return memI32
		}
		return memI64
	case t.IsPtr():
		return memPtr
	}
	return memUnsupported
}

func sizeOf(t *llvm.Type) int64 {
	if t == nil {
		return 0
	}
	return t.SizeBytes()
}

// intShift is the shift that sign-extends a 64-bit value from t's width (0
// for non-integer and 64-bit types).
func intShift(t *llvm.Type) uint8 {
	if t == nil || !t.IsInt() || t.Bits >= 64 {
		return 0
	}
	return uint8(64 - t.Bits)
}

// intMask keeps the low t.Bits bits of a narrow integer type.
func intMask(t *llvm.Type) int64 {
	if t != nil && t.IsInt() && t.Bits < 64 {
		return (int64(1) << uint(t.Bits)) - 1
	}
	return -1
}

// predError reports a predicate the machine does not implement: an oracle
// limitation, never a runtime fault of the executed program.
func (in *pinstr) predError() error {
	return fmt.Errorf("unsupported %s predicate %q", in.in.Op, in.in.Pred)
}
