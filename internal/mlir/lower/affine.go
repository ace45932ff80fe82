// Package lower implements the progressive dialect lowerings of the MLIR HLS
// flow: affine → scf (bound maps and access maps expanded into arith index
// computations) and scf → cf (structured loops and conditionals flattened
// into a block CFG with block-argument phis), the same structural pipeline
// upstream MLIR runs before mlir-translate.
package lower

import (
	"fmt"

	"repro/internal/mlir"
)

// AffineToSCF lowers every affine op in the module to the scf/memref/arith
// level. HLS directive attributes on loops are preserved on the produced
// scf.for ops.
func AffineToSCF(m *mlir.Module) error {
	for _, f := range m.Funcs() {
		if err := lowerAffineInFunc(f); err != nil {
			return err
		}
	}
	return m.Verify()
}

// lowerAffineInFunc lowers f's affine ops in one pre-order pass. Lowering
// replaces an op in place by non-affine ops (for affine.for, an scf.for that
// takes over the body), so resuming after the replacement and descending
// into the new loop's body lowers ops in exactly the order a rescan from
// the root for the first remaining affine op would. Uses of replaced
// results are recorded and rewritten in one sweep at the end; until then a
// lowered op reads its operands through the pending replacements.
func lowerAffineInFunc(f *mlir.Op) error {
	rep := mlir.Replacements{}
	defer mlir.ReplaceUses(f, rep)
	for _, r := range f.Regions {
		for _, b := range r.Blocks {
			if err := lowerAffineBlock(b, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func lowerAffineBlock(b *mlir.Block, rep mlir.Replacements) error {
	for i := 0; i < len(b.Ops); i++ {
		op := b.Ops[i]
		switch op.Name {
		case mlir.OpAffineFor, mlir.OpAffineLoad, mlir.OpAffineStore, mlir.OpAffineApply:
			for j, v := range op.Operands {
				op.Operands[j] = rep.Resolve(v)
			}
			n := len(b.Ops)
			var err error
			switch op.Name {
			case mlir.OpAffineFor:
				err = lowerAffineFor(op)
			case mlir.OpAffineLoad, mlir.OpAffineStore:
				err = lowerAffineAccess(op, rep)
			case mlir.OpAffineApply:
				err = lowerAffineApply(op, rep)
			}
			if err != nil {
				return err
			}
			// The op's replacement now ends at b.Ops[i+added]; only that
			// last op, the scf.for of a lowered loop, has regions to descend
			// into. An affine.apply of a bare dimension adds no op at all.
			added := len(b.Ops) - n
			i += added
			if added < 0 {
				continue
			}
			op = b.Ops[i]
		}
		for _, r := range op.Regions {
			for _, nb := range r.Blocks {
				if err := lowerAffineBlock(nb, rep); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// expandExpr materializes an affine expression as arith ops inserted before
// ref in ref's block, returning the resulting index value.
func expandExpr(e *mlir.AffineExpr, dims, syms []*mlir.Value, blk *mlir.Block, ref *mlir.Op) *mlir.Value {
	emit := func(op *mlir.Op) *mlir.Value {
		blk.InsertBefore(op, ref)
		return op.Result(0)
	}
	constant := func(v int64) *mlir.Value {
		c := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{mlir.Index()})
		c.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: v, Ty: mlir.Index()})
		return emit(c)
	}
	binary := func(name string, l, r *mlir.Value) *mlir.Value {
		return emit(mlir.NewOp(name, []*mlir.Value{l, r}, []*mlir.Type{mlir.Index()}))
	}
	switch e.Kind {
	case mlir.AffineDim:
		return dims[e.Pos]
	case mlir.AffineSym:
		return syms[e.Pos]
	case mlir.AffineConst:
		return constant(e.Val)
	case mlir.AffineAdd:
		return binary(mlir.OpAddI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineMul:
		return binary(mlir.OpMulI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineMod:
		// HLS index expressions are non-negative, where remsi == mod.
		return binary(mlir.OpRemSI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineFloorDiv:
		return binary(mlir.OpDivSI,
			expandExpr(e.LHS, dims, syms, blk, ref),
			expandExpr(e.RHS, dims, syms, blk, ref))
	case mlir.AffineCeilDiv:
		// ceildiv d == (x + d - 1) floordiv d for non-negative x.
		l := expandExpr(e.LHS, dims, syms, blk, ref)
		d := e.RHS.Val
		biased := binary(mlir.OpAddI, l, constant(d-1))
		return binary(mlir.OpDivSI, biased, constant(d))
	}
	panic("lower: invalid affine expression")
}

// expandMap materializes every result of an affine map before ref.
func expandMap(m *mlir.AffineMap, operands []*mlir.Value, blk *mlir.Block, ref *mlir.Op) []*mlir.Value {
	dims := operands[:m.NumDims]
	syms := operands[m.NumDims:]
	out := make([]*mlir.Value, len(m.Exprs))
	for i, e := range m.Exprs {
		out[i] = expandExpr(e, dims, syms, blk, ref)
	}
	return out
}

func lowerAffineFor(op *mlir.Op) error {
	fv := mlir.AffineForView{Op: op}
	blk := op.Block()
	if blk == nil {
		return fmt.Errorf("lower: detached affine.for")
	}
	lb := expandMap(fv.LowerMap(), fv.LowerOperands(), blk, op)[0]
	ub := expandMap(fv.UpperMap(), fv.UpperOperands(), blk, op)[0]
	stepC := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{mlir.Index()})
	stepC.SetAttr(mlir.AttrValue, mlir.IntAttr{Value: fv.Step(), Ty: mlir.Index()})
	blk.InsertBefore(stepC, op)

	scfFor := mlir.NewOp(mlir.OpSCFFor, []*mlir.Value{lb, ub, stepC.Result(0)}, nil)
	// Carry HLS directives through.
	for k, v := range op.Attrs {
		switch k {
		case mlir.AttrLowerMap, mlir.AttrUpperMap, mlir.AttrStep, mlir.AttrLBCount:
		default:
			scfFor.SetAttr(k, v)
		}
	}
	// Move the body region wholesale; rewrite the terminator.
	body := fv.Body()
	r := scfFor.AddRegion()
	r.AddBlock(body)
	if t := body.Terminator(); t != nil && t.Name == mlir.OpAffineYield {
		body.Remove(t)
		body.Append(mlir.NewOp(mlir.OpSCFYield, t.Operands, nil))
	}
	op.Regions = nil
	blk.InsertBefore(scfFor, op)
	op.Erase()
	return nil
}

func lowerAffineAccess(op *mlir.Op, rep mlir.Replacements) error {
	v := mlir.AffineAccessView{Op: op}
	blk := op.Block()
	idxs := expandMap(v.Map(), v.MapOperands(), blk, op)
	if op.Name == mlir.OpAffineLoad {
		load := mlir.NewOp(mlir.OpLoad, append([]*mlir.Value{v.MemRef()}, idxs...),
			[]*mlir.Type{op.Result(0).Type()})
		blk.InsertBefore(load, op)
		rep[op.Result(0)] = load.Result(0)
	} else {
		store := mlir.NewOp(mlir.OpStore, append([]*mlir.Value{v.StoredValue(), v.MemRef()}, idxs...), nil)
		blk.InsertBefore(store, op)
	}
	op.Erase()
	return nil
}

func lowerAffineApply(op *mlir.Op, rep mlir.Replacements) error {
	m, _ := op.MapAttr(mlir.AttrMap)
	blk := op.Block()
	val := expandMap(m, op.Operands, blk, op)[0]
	rep[op.Result(0)] = val
	op.Erase()
	return nil
}
