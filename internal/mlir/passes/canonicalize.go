package passes

import (
	"math"

	"repro/internal/mlir"
)

// Canonicalize returns the canonicalization pass: constant folding, algebraic
// simplification, and dead pure-op elimination, iterated to a fixpoint.
func Canonicalize() Pass {
	return funcPass{name: "canonicalize", fn: canonicalizeFunc}
}

func canonicalizeFunc(f *mlir.Op) error {
	for iter := 0; iter < 50; iter++ {
		changed := foldOnce(f)
		changed = eraseDeadOps(f) || changed
		if !changed {
			return nil
		}
	}
	return nil
}

// constOperand returns the constant attribute defining v, if any.
func constOperand(v *mlir.Value) (mlir.Attr, bool) {
	if v.Def == nil || v.Def.Name != mlir.OpConstant {
		return nil, false
	}
	return v.Def.Attrs[mlir.AttrValue], true
}

func constInt(v *mlir.Value) (int64, bool) {
	a, ok := constOperand(v)
	if !ok {
		return 0, false
	}
	ia, ok := a.(mlir.IntAttr)
	return ia.Value, ok
}

func constFloat(v *mlir.Value) (float64, bool) {
	a, ok := constOperand(v)
	if !ok {
		return 0, false
	}
	fa, ok := a.(mlir.FloatAttr)
	return fa.Value, ok
}

// replaceWithConst records op's single result as replaced by a fresh
// constant.
func replaceWithConst(rep mlir.Replacements, op *mlir.Op, attr mlir.Attr) {
	c := mlir.NewOp(mlir.OpConstant, nil, []*mlir.Type{op.Result(0).Type()})
	c.SetAttr(mlir.AttrValue, attr)
	op.Block().InsertBefore(c, op)
	rep[op.Result(0)] = c.Result(0)
}

// replaceWithValue records op's single result as replaced by v.
func replaceWithValue(rep mlir.Replacements, op *mlir.Op, v *mlir.Value) {
	rep[op.Result(0)] = v
}

// foldOnce folds every foldable op once. The folds' uses are rewritten in
// one sweep at the end; each op's operands are resolved through the
// pending replacements before it is folded, so it sees earlier folds as an
// immediate rewrite would show them.
func foldOnce(f *mlir.Op) bool {
	changed := false
	rep := mlir.Replacements{}
	mlir.Walk(f, func(op *mlir.Op) bool {
		for i, v := range op.Operands {
			op.Operands[i] = rep.Resolve(v)
		}
		if foldOp(rep, op) {
			changed = true
		}
		return true
	})
	mlir.ReplaceUses(f, rep)
	return changed
}

func foldOp(rep mlir.Replacements, op *mlir.Op) bool {
	switch op.Name {
	case mlir.OpAddI, mlir.OpSubI, mlir.OpMulI, mlir.OpDivSI, mlir.OpRemSI,
		mlir.OpMinSI, mlir.OpMaxSI:
		return foldIntBinary(rep, op)
	case mlir.OpAddF, mlir.OpSubF, mlir.OpMulF, mlir.OpDivF:
		return foldFloatBinary(rep, op)
	case mlir.OpNegF:
		if x, ok := constFloat(op.Operands[0]); ok {
			replaceWithConst(rep, op, mlir.FloatAttr{Value: -x, Ty: op.Result(0).Type()})
			return true
		}
	case mlir.OpCmpI:
		l, lok := constInt(op.Operands[0])
		r, rok := constInt(op.Operands[1])
		if lok && rok {
			pred, _ := op.StringAttr(mlir.AttrPredicate)
			replaceWithConst(rep, op, mlir.IntAttr{Value: b2i(evalICmp(pred, l, r)), Ty: mlir.I1()})
			return true
		}
	case mlir.OpCmpF:
		l, lok := constFloat(op.Operands[0])
		r, rok := constFloat(op.Operands[1])
		if lok && rok {
			pred, _ := op.StringAttr(mlir.AttrPredicate)
			replaceWithConst(rep, op, mlir.IntAttr{Value: b2i(evalFCmp(pred, l, r)), Ty: mlir.I1()})
			return true
		}
	case mlir.OpSelect:
		if c, ok := constInt(op.Operands[0]); ok {
			if c != 0 {
				replaceWithValue(rep, op, op.Operands[1])
			} else {
				replaceWithValue(rep, op, op.Operands[2])
			}
			return true
		}
	case mlir.OpIndexCast:
		if x, ok := constInt(op.Operands[0]); ok {
			replaceWithConst(rep, op, mlir.IntAttr{Value: x, Ty: op.Result(0).Type()})
			return true
		}
	case mlir.OpSIToFP:
		if x, ok := constInt(op.Operands[0]); ok {
			replaceWithConst(rep, op, mlir.FloatAttr{Value: float64(x), Ty: op.Result(0).Type()})
			return true
		}
	case mlir.OpAffineApply:
		m, _ := op.MapAttr(mlir.AttrMap)
		if m == nil {
			return false
		}
		vals := make([]int64, len(op.Operands))
		for i, v := range op.Operands {
			x, ok := constInt(v)
			if !ok {
				return false
			}
			vals[i] = x
		}
		dims := vals[:m.NumDims]
		syms := vals[m.NumDims:]
		replaceWithConst(rep, op, mlir.IntAttr{Value: m.Exprs[0].Eval(dims, syms), Ty: mlir.Index()})
		return true
	}
	return false
}

func foldIntBinary(rep mlir.Replacements, op *mlir.Op) bool {
	l, lok := constInt(op.Operands[0])
	r, rok := constInt(op.Operands[1])
	ty := op.Result(0).Type()
	if lok && rok {
		var v int64
		switch op.Name {
		case mlir.OpAddI:
			v = l + r
		case mlir.OpSubI:
			v = l - r
		case mlir.OpMulI:
			v = l * r
		case mlir.OpDivSI:
			if r == 0 {
				return false
			}
			v = l / r
		case mlir.OpRemSI:
			if r == 0 {
				return false
			}
			v = l % r
		case mlir.OpMinSI:
			v = min64(l, r)
		case mlir.OpMaxSI:
			v = max64(l, r)
		}
		replaceWithConst(rep, op, mlir.IntAttr{Value: v, Ty: ty})
		return true
	}
	// Algebraic identities.
	switch op.Name {
	case mlir.OpAddI:
		if rok && r == 0 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
		if lok && l == 0 {
			replaceWithValue(rep, op, op.Operands[1])
			return true
		}
	case mlir.OpSubI:
		if rok && r == 0 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
	case mlir.OpMulI:
		if rok && r == 1 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
		if lok && l == 1 {
			replaceWithValue(rep, op, op.Operands[1])
			return true
		}
		if (rok && r == 0) || (lok && l == 0) {
			replaceWithConst(rep, op, mlir.IntAttr{Value: 0, Ty: ty})
			return true
		}
	}
	return false
}

func foldFloatBinary(rep mlir.Replacements, op *mlir.Op) bool {
	l, lok := constFloat(op.Operands[0])
	r, rok := constFloat(op.Operands[1])
	ty := op.Result(0).Type()
	if lok && rok {
		var v float64
		switch op.Name {
		case mlir.OpAddF:
			v = l + r
		case mlir.OpSubF:
			v = l - r
		case mlir.OpMulF:
			v = l * r
		case mlir.OpDivF:
			if r == 0 {
				return false
			}
			v = l / r
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if ty.IsFloat() && ty.Width == 32 {
			v = float64(float32(v))
		}
		replaceWithConst(rep, op, mlir.FloatAttr{Value: v, Ty: ty})
		return true
	}
	// x+0, x*1 are exact float identities (no signed-zero subtleties needed
	// for the HLS kernels this flow targets).
	switch op.Name {
	case mlir.OpAddF, mlir.OpSubF:
		if rok && r == 0 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
	case mlir.OpMulF:
		if rok && r == 1 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
		if lok && l == 1 {
			replaceWithValue(rep, op, op.Operands[1])
			return true
		}
	case mlir.OpDivF:
		if rok && r == 1 {
			replaceWithValue(rep, op, op.Operands[0])
			return true
		}
	}
	return false
}

// eraseDeadOps removes pure ops whose results are all unused. Returns true
// when anything was removed.
func eraseDeadOps(f *mlir.Op) bool {
	used := map[*mlir.Value]bool{}
	mlir.Walk(f, func(op *mlir.Op) bool {
		for _, v := range op.Operands {
			used[v] = true
		}
		return true
	})
	changed := false
	mlir.WalkPost(f, func(op *mlir.Op) {
		if !mlir.IsPure(op) || op.Block() == nil {
			return
		}
		for _, r := range op.Results {
			if used[r] {
				return
			}
		}
		op.Erase()
		changed = true
	})
	return changed
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func evalICmp(pred string, l, r int64) bool {
	switch pred {
	case mlir.PredEQ:
		return l == r
	case mlir.PredNE:
		return l != r
	case mlir.PredSLT:
		return l < r
	case mlir.PredSLE:
		return l <= r
	case mlir.PredSGT:
		return l > r
	case mlir.PredSGE:
		return l >= r
	}
	return false
}

func evalFCmp(pred string, l, r float64) bool {
	switch pred {
	case mlir.PredOEQ:
		return l == r
	case mlir.PredONE:
		return l != r
	case mlir.PredOLT:
		return l < r
	case mlir.PredOLE:
		return l <= r
	case mlir.PredOGT:
		return l > r
	case mlir.PredOGE:
		return l >= r
	}
	return false
}
