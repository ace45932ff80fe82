package lower

import (
	"fmt"

	"repro/internal/mlir"
)

// SCFToCF flattens scf.for and scf.if into an explicit block CFG with
// cf.br/cf.cond_br terminators. Loop-carried HLS directive attributes are
// moved onto the loop's back-edge branch (the cf analogue of LLVM's
// !llvm.loop latch metadata).
func SCFToCF(m *mlir.Module) error {
	for _, f := range m.Funcs() {
		if err := lowerSCFInFunc(f); err != nil {
			return err
		}
		// Terminate any fall-through entry (functions whose body had no
		// explicit return would already be invalid; nothing to do).
	}
	return m.Verify()
}

// lowerSCFInFunc lowers f's scf ops in one pass over the function's
// blocks. Lowering an op ends its block with a branch and inserts the op's
// blocks and the continuation right behind it, so resuming at the next
// block lowers ops in exactly the order a rescan from the entry block
// would: nested scf ops surface into the inserted blocks.
func lowerSCFInFunc(f *mlir.Op) error {
	region := f.Regions[0]
	for bi := 0; bi < len(region.Blocks); bi++ {
		for _, op := range region.Blocks[bi].Ops {
			if op.Name != mlir.OpSCFFor && op.Name != mlir.OpSCFIf {
				continue
			}
			var err error
			if op.Name == mlir.OpSCFFor {
				err = lowerSCFFor(op)
			} else {
				err = lowerSCFIf(op)
			}
			if err != nil {
				return err
			}
			break // the rest of the block moved to the continuation
		}
	}
	return nil
}

// lowerSCFFor rewrites
//
//	before; scf.for %iv = %lb to %ub step %st { body }; after
//
// into
//
//	before:  cf.br header(%lb)
//	header(%iv): %c = cmpi slt %iv,%ub ; cf.cond_br %c, body, cont
//	body:    ...; %next = addi %iv,%st ; cf.br header(%next)   <- loop attrs
//	cont:    after
func lowerSCFFor(op *mlir.Op) error {
	blk := op.Block()
	region := blk.Region()
	lb, ub, st := op.Operands[0], op.Operands[1], op.Operands[2]

	cont := blk.SplitBlock(op)
	blk.Remove(op) // detach the scf.for itself

	header := mlir.NewBlock()
	region.InsertBlockAfter(header, blk)

	bodyBlk := op.Regions[0].Blocks[0]
	region.InsertBlockAfter(bodyBlk, header)
	// The body block keeps its ops; its induction variable moves to the
	// header as the header's argument, so none of its uses changes.
	iv := bodyBlk.Args[0]
	iv.Owner, iv.ArgNo = header, 0
	header.Args = []*mlir.Value{iv}
	bodyBlk.Args = nil

	// before -> header(lb)
	br := mlir.NewOp(mlir.OpBr, []*mlir.Value{lb}, nil)
	br.Succs = []*mlir.Block{header}
	blk.Append(br)

	// header: cond_br (iv < ub), body, cont
	cmp := mlir.NewOp(mlir.OpCmpI, []*mlir.Value{iv, ub}, []*mlir.Type{mlir.I1()})
	cmp.SetAttr(mlir.AttrPredicate, mlir.StringAttr(mlir.PredSLT))
	header.Append(cmp)
	cbr := mlir.NewOp(mlir.OpCondBr, []*mlir.Value{cmp.Result(0)}, nil)
	cbr.Succs = []*mlir.Block{bodyBlk, cont}
	cbr.SetAttr(mlir.AttrTrueCount, mlir.I(0))
	cbr.SetAttr(mlir.AttrFalseCount, mlir.I(0))
	header.Append(cbr)

	// body: replace scf.yield with iv+step branch back to header.
	yield := bodyBlk.Terminator()
	if yield == nil || yield.Name != mlir.OpSCFYield {
		return fmt.Errorf("lower: scf.for body must end in scf.yield")
	}
	bodyBlk.Remove(yield)
	next := mlir.NewOp(mlir.OpAddI, []*mlir.Value{iv, st}, []*mlir.Type{mlir.Index()})
	bodyBlk.Append(next)
	latch := mlir.NewOp(mlir.OpBr, []*mlir.Value{next.Result(0)}, nil)
	latch.Succs = []*mlir.Block{header}
	// Loop directives ride on the latch branch.
	for k, v := range op.Attrs {
		latch.SetAttr(k, v)
	}
	bodyBlk.Append(latch)
	return nil
}

// lowerSCFIf rewrites scf.if into cond_br/then/else/cont blocks.
func lowerSCFIf(op *mlir.Op) error {
	blk := op.Block()
	region := blk.Region()
	cond := op.Operands[0]

	cont := blk.SplitBlock(op)
	blk.Remove(op)

	thenBlk := op.Regions[0].Blocks[0]
	region.InsertBlockAfter(thenBlk, blk)
	replaceYieldWithBr(thenBlk, cont)

	elseTarget := cont
	if len(op.Regions) > 1 {
		elseBlk := op.Regions[1].Blocks[0]
		region.InsertBlockAfter(elseBlk, thenBlk)
		replaceYieldWithBr(elseBlk, cont)
		elseTarget = elseBlk
	}

	cbr := mlir.NewOp(mlir.OpCondBr, []*mlir.Value{cond}, nil)
	cbr.Succs = []*mlir.Block{thenBlk, elseTarget}
	cbr.SetAttr(mlir.AttrTrueCount, mlir.I(0))
	cbr.SetAttr(mlir.AttrFalseCount, mlir.I(0))
	blk.Append(cbr)
	return nil
}

func replaceYieldWithBr(b *mlir.Block, dest *mlir.Block) {
	if t := b.Terminator(); t != nil && t.Name == mlir.OpSCFYield {
		b.Remove(t)
	}
	br := mlir.NewOp(mlir.OpBr, nil, nil)
	br.Succs = []*mlir.Block{dest}
	b.Append(br)
}
