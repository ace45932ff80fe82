// Package translate converts cf-level MLIR into LLVM IR the way upstream
// mlir-translate does, faithfully reproducing the artifacts that make the
// raw output unreadable for HLS toolchains and that the adaptor
// (internal/core) must legalize:
//
//   - memref arguments expand into the full descriptor ABI
//     (base ptr, aligned ptr, offset, sizes..., strides...), with addresses
//     computed as linearized i64 arithmetic on the aligned pointer;
//   - memref.alloc becomes a call to @malloc plus lifetime intrinsics;
//   - math ops become modern llvm.* intrinsics;
//   - the module uses opaque pointers (FlavorModern);
//   - loop directives surface only as !llvm.loop metadata on latch branches.
package translate

import (
	"fmt"
	"strings"

	"repro/internal/llvm"
	"repro/internal/mlir"
)

// Options configures translation.
type Options struct {
	// EmitLifetimeMarkers adds llvm.lifetime.start/end around local
	// allocations, as modern toolchains do (the HLS gate rejects them).
	EmitLifetimeMarkers bool
}

// Translate converts a cf-level MLIR module to LLVM IR.
func Translate(m *mlir.Module, opts Options) (*llvm.Module, error) {
	out := llvm.NewModule("mlir-translated")
	for _, f := range m.Funcs() {
		lf, err := translateFunc(f, opts)
		if err != nil {
			return nil, fmt.Errorf("translate @%s: %w", mlir.FuncName(f), err)
		}
		out.AddFunc(lf)
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("translate: produced invalid IR: %w", err)
	}
	return out, nil
}

// MemRefArgAttr is the function-attribute key prefix recording the original
// memref type of an expanded argument group ("memref.arg<N>" = "4x4xf64").
const MemRefArgAttr = "memref.arg"

// DescriptorParams returns the parameter count one memref of the given rank
// expands into: base, aligned, offset, rank sizes, rank strides.
func DescriptorParams(rank int) int { return 3 + 2*rank }

// EncodeShape renders a static memref shape + element for the attr payload.
func EncodeShape(t *mlir.Type) string {
	var parts []string
	for _, d := range t.Shape {
		parts = append(parts, fmt.Sprintf("%d", d))
	}
	parts = append(parts, t.Elem.String())
	return strings.Join(parts, "x")
}

type xlate struct {
	opts Options
	f    *llvm.Function
	b    *llvm.Builder

	vmap map[*mlir.Value]llvm.Value
	bmap map[*mlir.Block]*llvm.Block

	// memrefs maps an MLIR memref value to its aligned pointer and type.
	memrefs map[*mlir.Value]*memrefInfo
}

type memrefInfo struct {
	aligned llvm.Value
	ty      *mlir.Type // original memref type
}

func elemLLVM(t *mlir.Type) *llvm.Type {
	switch {
	case t.IsFloat() && t.Width == 32:
		return llvm.FloatT()
	case t.IsFloat():
		return llvm.DoubleT()
	case t.IsIndex():
		return llvm.I64()
	case t.IsInt():
		return llvm.IntT(t.Width)
	}
	panic("translate: unsupported element type " + t.String())
}

func scalarLLVM(t *mlir.Type) *llvm.Type {
	if t.IsMemRef() {
		panic("translate: memref in scalar position")
	}
	return elemLLVM(t)
}

func translateFunc(f *mlir.Op, opts Options) (*llvm.Function, error) {
	name := mlir.FuncName(f)
	entry := mlir.FuncBody(f)

	lf := llvm.NewFunction(name, llvm.Void())
	// Size the value map for every block argument and op result of the
	// (flat, cf-level) body.
	values := 0
	for _, mb := range f.Regions[0].Blocks {
		values += len(mb.Args)
		for _, op := range mb.Ops {
			values += len(op.Results)
		}
	}
	x := &xlate{
		opts:    opts,
		f:       lf,
		vmap:    make(map[*mlir.Value]llvm.Value, values),
		bmap:    make(map[*mlir.Block]*llvm.Block, len(f.Regions[0].Blocks)),
		memrefs: map[*mlir.Value]*memrefInfo{},
	}

	// Expand the signature.
	for i, a := range entry.Args {
		if a.Type().IsMemRef() {
			mt := a.Type()
			if !mt.HasStaticShape() {
				return nil, fmt.Errorf("dynamic memref arguments unsupported")
			}
			rank := len(mt.Shape)
			base := &llvm.Param{Name: fmt.Sprintf("arg%d_base", i), Ty: llvm.Ptr(elemLLVM(mt.Elem))}
			aligned := &llvm.Param{Name: fmt.Sprintf("arg%d_aligned", i), Ty: llvm.Ptr(elemLLVM(mt.Elem))}
			offset := &llvm.Param{Name: fmt.Sprintf("arg%d_offset", i), Ty: llvm.I64()}
			lf.Params = append(lf.Params, base, aligned, offset)
			for d := 0; d < rank; d++ {
				lf.Params = append(lf.Params, &llvm.Param{
					Name: fmt.Sprintf("arg%d_size%d", i, d), Ty: llvm.I64()})
			}
			for d := 0; d < rank; d++ {
				lf.Params = append(lf.Params, &llvm.Param{
					Name: fmt.Sprintf("arg%d_stride%d", i, d), Ty: llvm.I64()})
			}
			lf.SetAttr(fmt.Sprintf("%s%d", MemRefArgAttr, i), EncodeShape(mt))
			x.memrefs[a] = &memrefInfo{aligned: aligned, ty: mt}
			x.vmap[a] = aligned
		} else {
			p := &llvm.Param{Name: fmt.Sprintf("arg%d", i), Ty: scalarLLVM(a.Type())}
			lf.Params = append(lf.Params, p)
			x.vmap[a] = p
		}
	}
	// Carry function-level HLS attributes through as LLVM attributes.
	for k, v := range f.Attrs {
		switch k {
		case mlir.AttrSymName, mlir.AttrResultTypes:
		default:
			lf.SetAttr(k, v.String())
		}
	}

	// Create LLVM blocks for every MLIR block.
	region := f.Regions[0]
	for bi, mb := range region.Blocks {
		bname := fmt.Sprintf("bb%d", bi)
		if bi == 0 {
			bname = "entry"
		}
		lb := lf.AddBlock(bname)
		x.bmap[mb] = lb
		// Non-entry block args become phis (filled in the edge pass).
		if bi > 0 {
			for ai, arg := range mb.Args {
				phi := &llvm.Instr{Op: llvm.OpPhi, Ty: scalarLLVM(arg.Type()),
					Name: fmt.Sprintf("phi%d_%d", bi, ai)}
				lb.Append(phi)
				x.vmap[arg] = phi
			}
		}
	}

	x.b = llvm.NewBuilder(lf)

	// Translate instructions.
	for _, mb := range region.Blocks {
		x.b.SetBlock(x.bmap[mb])
		for _, op := range mb.Ops {
			if err := x.op(op); err != nil {
				return nil, err
			}
		}
	}

	// Fill phi incomings from branch operands.
	for _, mb := range region.Blocks {
		term := mb.Terminator()
		if term == nil {
			continue
		}
		from := x.bmap[mb]
		addIncoming := func(dest *mlir.Block, args []*mlir.Value) {
			lb := x.bmap[dest]
			for ai, a := range args {
				phi := lb.Instrs[ai]
				phi.AddIncoming(x.val(a), from)
			}
			// Destinations with args but no operands on this edge are
			// invalid; the MLIR verifier would have caught that upstream.
		}
		switch term.Name {
		case mlir.OpBr:
			addIncoming(term.Succs[0], term.Operands)
		case mlir.OpCondBr:
			tc, _ := term.IntAttr(mlir.AttrTrueCount)
			addIncoming(term.Succs[0], term.Operands[1:1+tc])
			addIncoming(term.Succs[1], term.Operands[1+tc:])
		}
	}
	return lf, nil
}

func (x *xlate) val(v *mlir.Value) llvm.Value {
	lv, ok := x.vmap[v]
	if !ok {
		panic("translate: unmapped value")
	}
	return lv
}

// address emits the linearized address computation for a static memref
// access, returning an element pointer:
//
//	%lin = i0*stride0 + i1*stride1 + ...   (constant strides, row-major)
//	%ptr = getelementptr elem, ptr %aligned, i64 %lin
func (x *xlate) address(mem *mlir.Value, idxs []*mlir.Value) (llvm.Value, *llvm.Type, error) {
	info := x.memrefs[mem]
	if info == nil {
		return nil, nil, fmt.Errorf("access to unknown memref")
	}
	mt := info.ty
	elem := elemLLVM(mt.Elem)
	// Row-major strides.
	strides := make([]int64, len(mt.Shape))
	s := int64(1)
	for d := len(mt.Shape) - 1; d >= 0; d-- {
		strides[d] = s
		s *= mt.Shape[d]
	}
	var lin llvm.Value = llvm.CI(llvm.I64(), 0)
	for d, idx := range idxs {
		iv := x.val(idx)
		term := iv
		if strides[d] != 1 {
			term = x.b.Mul(iv, llvm.CI(llvm.I64(), strides[d]))
		}
		if ci, ok := lin.(*llvm.ConstInt); ok && ci.Val == 0 {
			lin = term
		} else {
			lin = x.b.Add(lin, term)
		}
	}
	gep := x.b.GEP(elem, info.aligned, lin)
	return gep, elem, nil
}

func (x *xlate) op(op *mlir.Op) error {
	b := x.b
	switch op.Name {
	case mlir.OpConstant:
		switch a := op.Attrs[mlir.AttrValue].(type) {
		case mlir.IntAttr:
			ty := scalarLLVM(op.Result(0).Type())
			x.vmap[op.Result(0)] = llvm.CI(ty, a.Value)
		case mlir.FloatAttr:
			x.vmap[op.Result(0)] = llvm.CF(scalarLLVM(op.Result(0).Type()), a.Value)
		}
		return nil

	case mlir.OpAddI, mlir.OpSubI, mlir.OpMulI, mlir.OpDivSI, mlir.OpRemSI:
		opc := map[string]llvm.Opcode{
			mlir.OpAddI: llvm.OpAdd, mlir.OpSubI: llvm.OpSub, mlir.OpMulI: llvm.OpMul,
			mlir.OpDivSI: llvm.OpSDiv, mlir.OpRemSI: llvm.OpSRem,
		}[op.Name]
		x.vmap[op.Result(0)] = b.Binary(opc, x.val(op.Operands[0]), x.val(op.Operands[1]))
		return nil

	case mlir.OpMinSI, mlir.OpMaxSI:
		pred := "slt"
		if op.Name == mlir.OpMaxSI {
			pred = "sgt"
		}
		l, r := x.val(op.Operands[0]), x.val(op.Operands[1])
		c := b.ICmp(pred, l, r)
		x.vmap[op.Result(0)] = b.Select(c, l, r)
		return nil

	case mlir.OpAddF, mlir.OpSubF, mlir.OpMulF, mlir.OpDivF:
		opc := map[string]llvm.Opcode{
			mlir.OpAddF: llvm.OpFAdd, mlir.OpSubF: llvm.OpFSub,
			mlir.OpMulF: llvm.OpFMul, mlir.OpDivF: llvm.OpFDiv,
		}[op.Name]
		x.vmap[op.Result(0)] = b.Binary(opc, x.val(op.Operands[0]), x.val(op.Operands[1]))
		return nil

	case mlir.OpNegF:
		x.vmap[op.Result(0)] = b.FNeg(x.val(op.Operands[0]))
		return nil

	case mlir.OpCmpI:
		pred, _ := op.StringAttr(mlir.AttrPredicate)
		x.vmap[op.Result(0)] = b.ICmp(pred, x.val(op.Operands[0]), x.val(op.Operands[1]))
		return nil

	case mlir.OpCmpF:
		pred, _ := op.StringAttr(mlir.AttrPredicate)
		x.vmap[op.Result(0)] = b.FCmp(pred, x.val(op.Operands[0]), x.val(op.Operands[1]))
		return nil

	case mlir.OpSelect:
		x.vmap[op.Result(0)] = b.Select(x.val(op.Operands[0]), x.val(op.Operands[1]), x.val(op.Operands[2]))
		return nil

	case mlir.OpIndexCast:
		// index == i64 in this lowering; cast is a no-op or trunc/sext.
		src := x.val(op.Operands[0])
		dst := scalarLLVM(op.Result(0).Type())
		if src.Type().Equal(dst) {
			x.vmap[op.Result(0)] = src
		} else if dst.Bits < src.Type().Bits {
			x.vmap[op.Result(0)] = b.Cast(llvm.OpTrunc, src, dst)
		} else {
			x.vmap[op.Result(0)] = b.Cast(llvm.OpSExt, src, dst)
		}
		return nil

	case mlir.OpSIToFP:
		x.vmap[op.Result(0)] = b.Cast(llvm.OpSIToFP, x.val(op.Operands[0]), scalarLLVM(op.Result(0).Type()))
		return nil

	case mlir.OpFPToSI:
		x.vmap[op.Result(0)] = b.Cast(llvm.OpFPToSI, x.val(op.Operands[0]), scalarLLVM(op.Result(0).Type()))
		return nil

	case mlir.OpExtF:
		x.vmap[op.Result(0)] = b.Cast(llvm.OpFPExt, x.val(op.Operands[0]), scalarLLVM(op.Result(0).Type()))
		return nil

	case mlir.OpTruncF:
		x.vmap[op.Result(0)] = b.Cast(llvm.OpFPTrunc, x.val(op.Operands[0]), scalarLLVM(op.Result(0).Type()))
		return nil

	case mlir.OpMathSqrt, mlir.OpMathExp:
		ty := scalarLLVM(op.Result(0).Type())
		intr := "llvm.sqrt."
		if op.Name == mlir.OpMathExp {
			intr = "llvm.exp."
		}
		suffix := "f64"
		if ty.Kind == llvm.KindFloat {
			suffix = "f32"
		}
		x.vmap[op.Result(0)] = b.Call(intr+suffix, ty, x.val(op.Operands[0]))
		return nil

	case mlir.OpAlloc:
		// Heap path, as upstream: call @malloc, lifetime markers optional.
		mt := op.Result(0).Type()
		bytes := mt.NumElements() * elemLLVM(mt.Elem).SizeBytes()
		ptr := b.Call("malloc", llvm.Ptr(elemLLVM(mt.Elem)), llvm.CI(llvm.I64(), bytes))
		if x.opts.EmitLifetimeMarkers {
			b.Call("llvm.lifetime.start.p0", llvm.Void(), llvm.CI(llvm.I64(), bytes), ptr)
		}
		x.memrefs[op.Result(0)] = &memrefInfo{aligned: ptr, ty: mt}
		x.vmap[op.Result(0)] = ptr
		return nil

	case mlir.OpAlloca:
		mt := op.Result(0).Type()
		elem := elemLLVM(mt.Elem)
		a := b.Alloca(llvm.ArrayOf(mt.NumElements(), elem))
		// The pointer to element 0 (decay), as clang would produce.
		dec := b.GEP(llvm.ArrayOf(mt.NumElements(), elem), a,
			llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 0))
		x.memrefs[op.Result(0)] = &memrefInfo{aligned: dec, ty: mt}
		x.vmap[op.Result(0)] = dec
		return nil

	case mlir.OpDealloc:
		b.Call("free", llvm.Void(), x.val(op.Operands[0]))
		return nil

	case mlir.OpLoad:
		ptr, elem, err := x.address(op.Operands[0], op.Operands[1:])
		if err != nil {
			return err
		}
		x.vmap[op.Result(0)] = x.b.Load(elem, ptr)
		return nil

	case mlir.OpStore:
		ptr, _, err := x.address(op.Operands[1], op.Operands[2:])
		if err != nil {
			return err
		}
		x.b.Store(x.val(op.Operands[0]), ptr)
		return nil

	case mlir.OpBr:
		br := b.Br(x.bmap[op.Succs[0]])
		br.Loop = loopMDFromAttrs(op)
		return nil

	case mlir.OpCondBr:
		cbr := b.CondBr(x.val(op.Operands[0]), x.bmap[op.Succs[0]], x.bmap[op.Succs[1]])
		cbr.Loop = loopMDFromAttrs(op)
		return nil

	case mlir.OpReturn:
		if len(op.Operands) > 0 {
			b.Ret(x.val(op.Operands[0]))
		} else {
			b.Ret(nil)
		}
		return nil

	case mlir.OpCall:
		callee, _ := op.Attrs[mlir.AttrCallee].(mlir.SymbolRefAttr)
		var args []llvm.Value
		for _, a := range op.Operands {
			args = append(args, x.val(a))
		}
		ret := llvm.Void()
		if len(op.Results) > 0 {
			ret = scalarLLVM(op.Result(0).Type())
		}
		call := b.Call(string(callee), ret, args...)
		if len(op.Results) > 0 {
			x.vmap[op.Result(0)] = call
		}
		return nil
	}
	return fmt.Errorf("unsupported op %s at cf level", op.Name)
}

// loopMDFromAttrs converts latch-branch HLS attrs into LLVM loop metadata.
func loopMDFromAttrs(op *mlir.Op) *llvm.LoopMD {
	md := &llvm.LoopMD{}
	has := false
	if op.HasAttr(mlir.AttrPipeline) {
		md.Pipeline = true
		has = true
		if ii, ok := op.IntAttr(mlir.AttrII); ok {
			md.II = int(ii)
		}
	}
	if u, ok := op.IntAttr(mlir.AttrUnroll); ok {
		md.Unroll = int(u)
		has = true
	}
	if op.HasAttr(mlir.AttrFlatten) {
		md.Flatten = true
		has = true
	}
	if !has {
		return nil
	}
	return md
}
