package mlir

import (
	"fmt"
	"sync"
)

// scopeSets recycles the verifier's sets of visible values. The verifier
// runs after every pass, and a fresh set per call was its largest
// allocation. Sets of more than maxPooledScope values are dropped instead,
// so one huge function does not make every later clear costly.
var scopeSets = sync.Pool{New: func() any { return map[*Value]struct{}{} }}

const maxPooledScope = 1 << 14

// VerifyError describes a structural violation found by Verify.
type VerifyError struct {
	Op  *Op
	Msg string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %s: %s", e.Op.Name, e.Msg)
}

// Verify checks structural invariants of the module: parent links, block
// terminators, operand/result typing for known ops, and def-before-use
// (structural dominance for single-block regions, CFG dominance for
// multi-block regions).
func (m *Module) Verify() error {
	var errs []error
	for _, f := range m.Funcs() {
		errs = append(errs, verifyFunc(f)...)
	}
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func verifyFunc(f *Op) []error {
	var errs []error
	fail := func(op *Op, format string, args ...any) {
		errs = append(errs, &VerifyError{Op: op, Msg: fmt.Sprintf(format, args...)})
	}

	// Collect the set of visible values at each op via a scoped walk.
	scope := scopeSets.Get().(map[*Value]struct{})
	defer func() {
		if len(scope) <= maxPooledScope {
			clear(scope)
			scopeSets.Put(scope)
		}
	}()
	var visitRegion func(r *Region)

	visitBlockOps := func(b *Block) {
		for i, op := range b.Ops {
			if op.parent != b {
				fail(op, "parent link broken")
			}
			for oi, v := range op.Operands {
				if v == nil {
					fail(op, "nil operand %d", oi)
					continue
				}
				if _, ok := scope[v]; !ok {
					fail(op, "operand %d does not dominate use", oi)
				}
			}
			if op.IsTerminator() && i != len(b.Ops)-1 {
				fail(op, "terminator %s not at end of block", op.Name)
			}
			errs = append(errs, verifyOpTyping(op)...)
			for _, r := range op.Regions {
				if r.parent != op {
					fail(op, "region parent link broken")
				}
				visitRegion(r)
			}
			for _, res := range op.Results {
				scope[res] = struct{}{}
			}
		}
	}

	visitRegion = func(r *Region) {
		if len(r.Blocks) == 0 {
			return
		}
		if len(r.Blocks) == 1 {
			b := r.Blocks[0]
			for _, a := range b.Args {
				scope[a] = struct{}{}
			}
			visitBlockOps(b)
			return
		}
		// Multi-block (cf-level) region: approximate dominance by making
		// every block's args and all op results visible region-wide, then
		// separately check CFG properties.
		for _, b := range r.Blocks {
			for _, a := range b.Args {
				scope[a] = struct{}{}
			}
			for _, op := range b.Ops {
				for _, res := range op.Results {
					scope[res] = struct{}{}
				}
			}
		}
		for _, b := range r.Blocks {
			if t := b.Terminator(); t == nil || !t.IsTerminator() {
				fail(r.parent, "block lacks terminator")
			}
			visitBlockOps(b)
		}
	}

	if len(f.Regions) != 1 {
		fail(f, "func.func must have exactly one region")
		return errs
	}
	visitRegion(f.Regions[0])
	return errs
}

func verifyOpTyping(op *Op) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, &VerifyError{Op: op, Msg: fmt.Sprintf(format, args...)})
	}
	wantOperands := func(n int) bool {
		if len(op.Operands) != n {
			fail("want %d operands, have %d", n, len(op.Operands))
			return false
		}
		return true
	}

	switch op.Name {
	case OpAddI, OpSubI, OpMulI, OpDivSI, OpRemSI, OpMinSI, OpMaxSI:
		if wantOperands(2) {
			if !op.Operands[0].Type().IsIntOrIndex() {
				fail("integer op on %s", op.Operands[0].Type())
			}
			if !op.Operands[0].Type().Equal(op.Operands[1].Type()) {
				fail("operand type mismatch")
			}
		}
	case OpAddF, OpSubF, OpMulF, OpDivF:
		if wantOperands(2) {
			if !op.Operands[0].Type().IsFloat() {
				fail("float op on %s", op.Operands[0].Type())
			}
			if !op.Operands[0].Type().Equal(op.Operands[1].Type()) {
				fail("operand type mismatch")
			}
		}
	case OpNegF:
		if wantOperands(1) && !op.Operands[0].Type().IsFloat() {
			fail("negf on %s", op.Operands[0].Type())
		}
	case OpCmpI:
		if wantOperands(2) && !op.Operands[0].Type().IsIntOrIndex() {
			fail("cmpi on %s", op.Operands[0].Type())
		}
	case OpCmpF:
		if wantOperands(2) && !op.Operands[0].Type().IsFloat() {
			fail("cmpf on %s", op.Operands[0].Type())
		}
	case OpSelect:
		if wantOperands(3) {
			if !op.Operands[0].Type().Equal(I1()) {
				fail("select condition must be i1")
			}
			if !op.Operands[1].Type().Equal(op.Operands[2].Type()) {
				fail("select arm type mismatch")
			}
		}
	case OpConstant:
		if !op.HasAttr(AttrValue) {
			fail("constant without value attribute")
		}
	case OpLoad:
		if len(op.Operands) < 1 {
			fail("load without memref")
		} else if mt := op.Operands[0].Type(); !mt.IsMemRef() {
			fail("load from non-memref %s", mt)
		} else if len(op.Operands)-1 != len(mt.Shape) {
			fail("load index count %d != rank %d", len(op.Operands)-1, len(mt.Shape))
		}
	case OpStore:
		if len(op.Operands) < 2 {
			fail("store without value/memref")
		} else if mt := op.Operands[1].Type(); !mt.IsMemRef() {
			fail("store to non-memref %s", mt)
		} else if len(op.Operands)-2 != len(mt.Shape) {
			fail("store index count %d != rank %d", len(op.Operands)-2, len(mt.Shape))
		}
	case OpAffineLoad, OpAffineStore:
		v := AffineAccessView{op}
		mt := v.MemRef().Type()
		if !mt.IsMemRef() {
			fail("affine access on non-memref %s", mt)
			break
		}
		m := v.Map()
		if m == nil {
			fail("affine access without map")
			break
		}
		if len(m.Exprs) != len(mt.Shape) {
			fail("access map results %d != rank %d", len(m.Exprs), len(mt.Shape))
		}
		if m.NumDims+m.NumSyms != len(v.MapOperands()) {
			fail("access map arity %d != operands %d", m.NumDims+m.NumSyms, len(v.MapOperands()))
		}
	case OpAffineFor:
		fv := AffineForView{op}
		if len(op.Regions) != 1 || len(op.Regions[0].Blocks) != 1 {
			fail("affine.for must have a single-block region")
			break
		}
		if len(fv.Body().Args) != 1 || !fv.Body().Args[0].Type().IsIndex() {
			fail("affine.for body must take a single index argument")
		}
		if fv.LowerMap() == nil || fv.UpperMap() == nil {
			fail("affine.for missing bound maps")
			break
		}
		if fv.Step() <= 0 {
			fail("affine.for step must be positive")
		}
		lb := fv.LowerMap()
		ub := fv.UpperMap()
		n, _ := op.IntAttr(AttrLBCount)
		if int(n) != lb.NumDims+lb.NumSyms {
			fail("lower bound operand count %d != map arity %d", n, lb.NumDims+lb.NumSyms)
		}
		if len(op.Operands)-int(n) != ub.NumDims+ub.NumSyms {
			fail("upper bound operand count mismatch")
		}
		if t := fv.Body().Terminator(); t == nil || t.Name != OpAffineYield {
			fail("affine.for body must end with affine.yield")
		}
	case OpSCFFor:
		if wantOperands(3) {
			for i := 0; i < 3; i++ {
				if !op.Operands[i].Type().IsIndex() {
					fail("scf.for bound %d must be index", i)
				}
			}
		}
		if len(op.Regions) != 1 || len(op.Regions[0].Blocks) != 1 {
			fail("scf.for must have a single-block region")
		}
	case OpCondBr:
		if len(op.Succs) != 2 {
			fail("cond_br needs two successors")
		}
	case OpBr:
		if len(op.Succs) != 1 {
			fail("br needs one successor")
		}
	}
	return errs
}
