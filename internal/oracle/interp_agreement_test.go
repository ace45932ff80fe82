package oracle

import (
	"testing"

	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/translate"
)

// toLLVM lowers a structured module to cf form and translates it.
func toLLVM(t *testing.T, m *mlir.Module) *llvm.Module {
	t.Helper()
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lm
}

// TestF32SqrtAndSIToFPRoundLikeLLVM runs an f32 kernel whose results depend
// on math.sqrt and arith.sitofp rounding to f32 before further arithmetic:
// the MLIR interpreter and the LLVM interpreter on its translation must
// leave bit-identical memory.
func TestF32SqrtAndSIToFPRoundLikeLLVM(t *testing.T) {
	build := func() *mlir.Module {
		m := mlir.NewModule()
		ty := mlir.MemRef([]int64{2}, mlir.F32())
		_, args := m.AddFunc("k", []*mlir.Type{ty}, nil)
		b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("k")))
		// sqrt(2)^2: 2 when the root stays at f64 precision, 1.99999988
		// when it is rounded to f32 first.
		r := b.Create(mlir.OpMathSqrt, []*mlir.Value{b.ConstantFloat(2, mlir.F32())}, []*mlir.Type{mlir.F32()}).Result(0)
		b.AffineStore(b.MulF(r, r), args[0], b.ConstantIndex(0))
		// (float)(2^24+1) - 2^24: 1 at f64 precision, 0 at f32.
		x := b.SIToFP(b.ConstantInt(1<<24+1, mlir.I64()), mlir.F32())
		b.AffineStore(b.SubF(x, b.ConstantFloat(1<<24, mlir.F32())), args[0], b.ConstantIndex(1))
		b.Return()
		return m
	}
	h, err := New(build(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if h.refF[0][0] != 2-0x1p-23 || h.refF[0][1] != 0 {
		t.Errorf("MLIR interpreter results %v, want f32-rounded [1.99999988 0]", h.refF[0])
	}
	h.MaxULP = 0
	if err := h.CheckLLVM(toLLVM(t, build())); err != nil {
		t.Errorf("LLVM interpreter disagrees with the MLIR interpreter: %v", err)
	}
}

// TestUnknownPredicateIsOracleLimitation corrupts one comparison predicate
// in each interpreter's input: the check must fail with an ordinary error
// that IsMiscompile does not count as a miscompile.
func TestUnknownPredicateIsOracleLimitation(t *testing.T) {
	h, err := New(gemmModule(t), "gemm")
	if err != nil {
		t.Fatal(err)
	}
	m := gemmModule(t)
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	mlir.Walk(m.Op, func(op *mlir.Op) bool {
		if op.Name == mlir.OpCmpI && !corrupted {
			op.SetAttr(mlir.AttrPredicate, mlir.StringAttr("ult"))
			corrupted = true
		}
		return true
	})
	if !corrupted {
		t.Fatal("cf-form gemm has no arith.cmpi to corrupt")
	}
	err = h.CheckMLIR(m)
	if err == nil || IsMiscompile(err) {
		t.Errorf("MLIR check with an unknown cmpi predicate: err = %v, want an oracle limitation", err)
	}

	lm := toLLVM(t, gemmModule(t))
	corrupted = false
	for _, f := range lm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == llvm.OpICmp && !corrupted {
					in.Pred = "bogus"
					corrupted = true
				}
			}
		}
	}
	if !corrupted {
		t.Fatal("translated gemm has no icmp to corrupt")
	}
	err = h.CheckLLVM(lm)
	if err == nil || IsMiscompile(err) {
		t.Errorf("LLVM check with an unknown icmp predicate: err = %v, want an oracle limitation", err)
	}
}
