package lint

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/llvm"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir"
)

func modOf(fs ...*llvm.Function) *llvm.Module {
	m := llvm.NewModule("lint-test")
	for _, f := range fs {
		m.AddFunc(f)
	}
	return m
}

// runCheck runs exactly one check over m.
func runCheck(m *llvm.Module, check string) diag.Diagnostics {
	return Module(m, Options{Enabled: map[string]bool{check: true}})
}

// straightLine builds: entry { body(b); ret } with no loops.
func straightLine(t *testing.T, body func(b *llvm.Builder)) *llvm.Function {
	t.Helper()
	f := llvm.NewFunction("straight", llvm.Void())
	entry := f.AddBlock("entry")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	body(b)
	b.Ret(nil)
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return f
}

// loopFunc builds a canonical counted loop (entry -> h -> body -> h ; h ->
// exit) over a pointer-to-[16 x float] parameter, with md attached to the
// latch and the body emitted by the callback.
func loopFunc(t *testing.T, trip int64, md *llvm.LoopMD, body func(b *llvm.Builder, iv llvm.Value, arr llvm.Value)) *llvm.Function {
	t.Helper()
	arr := &llvm.Param{Name: "arr", Ty: llvm.Ptr(llvm.ArrayOf(16, llvm.FloatT()))}
	f := llvm.NewFunction("loop", llvm.Void(), arr)
	entry := f.AddBlock("entry")
	h := f.AddBlock("h")
	bb := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(h)
	b.SetBlock(h)
	iv := b.Phi(llvm.I64())
	cond := b.ICmp("slt", iv, llvm.CI(llvm.I64(), trip))
	b.CondBr(cond, bb, exit)
	b.SetBlock(bb)
	body(b, iv, arr)
	next := b.Add(iv, llvm.CI(llvm.I64(), 1))
	latch := b.Br(h)
	latch.Loop = md
	b.SetBlock(exit)
	b.Ret(nil)
	iv.AddIncoming(llvm.CI(llvm.I64(), 0), entry)
	iv.AddIncoming(next, bb)
	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return f
}

// arrTy is the source element type loopFunc's parameter points to.
func arrTy() *llvm.Type { return llvm.ArrayOf(16, llvm.FloatT()) }

func TestSSADominanceFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		x := b.Add(llvm.CI(llvm.I64(), 1), llvm.CI(llvm.I64(), 2))
		b.Add(x, llvm.CI(llvm.I64(), 3))
	})
	// Hoist the use above its def: Verify accepts this, the lint must not.
	e := f.Entry()
	e.Instrs[0], e.Instrs[1] = e.Instrs[1], e.Instrs[0]
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify should accept the reordered block (lint is the stricter layer): %v", err)
	}
	ds := runCheck(modOf(f), "ssa-dominance")
	if len(ds) != 1 || ds[0].Severity != diag.SevError {
		t.Fatalf("want 1 error, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "used before its definition") {
		t.Errorf("unexpected message: %s", ds[0].Message)
	}
}

func TestSSADominanceNonFiring(t *testing.T) {
	f := loopFunc(t, 16, nil, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(b.Load(llvm.FloatT(), p), p)
	})
	if ds := runCheck(modOf(f), "ssa-dominance"); len(ds) != 0 {
		t.Errorf("clean loop should have no dominance findings: %v", ds)
	}
}

func TestUninitLoadFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Load(llvm.FloatT(), a)
	})
	ds := runCheck(modOf(f), "uninit-load")
	if len(ds) != 1 || ds[0].Severity != diag.SevError {
		t.Fatalf("want 1 error, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "no path has initialized") {
		t.Errorf("unexpected message: %s", ds[0].Message)
	}
}

func TestUninitLoadNonFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Store(llvm.CF(llvm.FloatT(), 1), a)
		b.Load(llvm.FloatT(), a)
	})
	if ds := runCheck(modOf(f), "uninit-load"); len(ds) != 0 {
		t.Errorf("initialized load should be clean: %v", ds)
	}
}

func TestDeadStoreFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Store(llvm.CF(llvm.FloatT(), 1), a)
		b.Store(llvm.CF(llvm.FloatT(), 2), a)
		b.Load(llvm.FloatT(), a)
	})
	ds := runCheck(modOf(f), "dead-store")
	if len(ds) != 1 || ds[0].Severity != diag.SevWarning {
		t.Fatalf("want 1 warning, got %v", ds)
	}
}

func TestDeadStoreNonFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Store(llvm.CF(llvm.FloatT(), 1), a)
		b.Load(llvm.FloatT(), a)
		b.Store(llvm.CF(llvm.FloatT(), 2), a)
	})
	if ds := runCheck(modOf(f), "dead-store"); len(ds) != 0 {
		t.Errorf("store-load-store should be clean: %v", ds)
	}
}

func TestDeadAllocaFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Store(llvm.CF(llvm.FloatT(), 1), a)
	})
	ds := runCheck(modOf(f), "dead-alloca")
	if len(ds) != 1 || ds[0].Severity != diag.SevWarning {
		t.Fatalf("want 1 warning, got %v", ds)
	}
}

func TestDeadAllocaNonFiring(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.FloatT())
		b.Store(llvm.CF(llvm.FloatT(), 1), a)
		b.Load(llvm.FloatT(), a)
	})
	if ds := runCheck(modOf(f), "dead-alloca"); len(ds) != 0 {
		t.Errorf("read alloca should be clean: %v", ds)
	}
}

func TestGEPBoundsFiringConst(t *testing.T) {
	f := straightLine(t, func(b *llvm.Builder) {
		a := b.Alloca(llvm.ArrayOf(4, llvm.FloatT()))
		p := b.GEP(llvm.ArrayOf(4, llvm.FloatT()), a, llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 9))
		b.Store(llvm.CF(llvm.FloatT(), 1), p)
	})
	ds := runCheck(modOf(f), "gep-bounds")
	if len(ds) != 1 || ds[0].Severity != diag.SevError {
		t.Fatalf("want 1 error, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "outside dimension") {
		t.Errorf("unexpected message: %s", ds[0].Message)
	}
}

func TestGEPBoundsFiringInduction(t *testing.T) {
	// Trip 32 over a 16-element array: the induction range [0, 31] exceeds
	// the static bound, so the ranged analysis must warn.
	f := loopFunc(t, 32, nil, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(llvm.CF(llvm.FloatT(), 1), p)
	})
	ds := runCheck(modOf(f), "gep-bounds")
	if len(ds) != 1 || ds[0].Severity != diag.SevWarning {
		t.Fatalf("want 1 warning, got %v", ds)
	}
}

func TestGEPBoundsNonFiring(t *testing.T) {
	f := loopFunc(t, 16, nil, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(llvm.CF(llvm.FloatT(), 1), p)
	})
	if ds := runCheck(modOf(f), "gep-bounds"); len(ds) != 0 {
		t.Errorf("in-bounds accesses should be clean: %v", ds)
	}
}

// recurrenceBody loads and stores a loop-invariant address — a memory
// recurrence that bounds the pipeline II.
func recurrenceBody(b *llvm.Builder, iv, arr llvm.Value) {
	p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), llvm.CI(llvm.I64(), 0))
	v := b.Load(llvm.FloatT(), p)
	b.Store(b.FAdd(v, llvm.CF(llvm.FloatT(), 1)), p)
}

func TestLoopCarriedDepFiring(t *testing.T) {
	f := loopFunc(t, 16, nil, recurrenceBody)
	ds := runCheck(modOf(f), "loop-carried-dep")
	if len(ds) != 1 || ds[0].Severity != diag.SevInfo {
		t.Fatalf("want 1 info, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "RecMII") {
		t.Errorf("finding should quote the RecMII: %s", ds[0].Message)
	}
}

func TestLoopCarriedDepNonFiring(t *testing.T) {
	f := loopFunc(t, 16, nil, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(b.FAdd(b.Load(llvm.FloatT(), p), llvm.CF(llvm.FloatT(), 1)), p)
	})
	if ds := runCheck(modOf(f), "loop-carried-dep"); len(ds) != 0 {
		t.Errorf("induction-indexed access carries nothing: %v", ds)
	}
}

func TestDirectivesFiringIIBelowRecMII(t *testing.T) {
	f := loopFunc(t, 16, &llvm.LoopMD{Pipeline: true, II: 1}, recurrenceBody)
	ds := runCheck(modOf(f), "hls-directives")
	if len(ds) != 1 || ds[0].Severity != diag.SevWarning {
		t.Fatalf("want 1 warning, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "below the dependence-implied RecMII") {
		t.Errorf("unexpected message: %s", ds[0].Message)
	}
}

func TestDirectivesFiringUnrollRemainder(t *testing.T) {
	f := loopFunc(t, 16, &llvm.LoopMD{Unroll: 3}, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(llvm.CF(llvm.FloatT(), 1), p)
	})
	ds := runCheck(modOf(f), "hls-directives")
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "does not divide the trip count") {
		t.Fatalf("want the remainder warning, got %v", ds)
	}
}

func TestDirectivesFiringPartition(t *testing.T) {
	f := loopFunc(t, 16, nil, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(llvm.CF(llvm.FloatT(), 1), p)
	})
	f.SetAttr("hls.array_partition.arg0", "cyclic,32,0")
	ds := runCheck(modOf(f), "hls-directives")
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "exceeds dimension") {
		t.Fatalf("want the oversized-factor warning, got %v", ds)
	}
}

func TestDirectivesNonFiring(t *testing.T) {
	f := loopFunc(t, 16, &llvm.LoopMD{Pipeline: true, II: 1}, func(b *llvm.Builder, iv, arr llvm.Value) {
		p := b.GEP(arrTy(), arr, llvm.CI(llvm.I64(), 0), iv)
		b.Store(b.FAdd(b.Load(llvm.FloatT(), p), llvm.CF(llvm.FloatT(), 1)), p)
	})
	f.SetAttr("hls.array_partition.arg0", "cyclic,4,0")
	if ds := runCheck(modOf(f), "hls-directives"); len(ds) != 0 {
		t.Errorf("feasible directives should be clean: %v", ds)
	}
}

// TestInvariantsCatchDominanceBreakVerifyMisses: a pass that breaks SSA
// dominance slips through Verify but not through Invariants — the gap the
// flows' verify-each mode closes by running both after every unit.
func TestInvariantsCatchDominanceBreakVerifyMisses(t *testing.T) {
	m := modOf(straightLine(t, func(b *llvm.Builder) {
		x := b.Add(llvm.CI(llvm.I64(), 1), llvm.CI(llvm.I64(), 2))
		b.Add(x, llvm.CI(llvm.I64(), 3))
	}))
	breaker := lpasses.Pass{Name: "break-ssa", Run: func(f *llvm.Function) {
		e := f.Entry()
		e.Instrs[0], e.Instrs[1] = e.Instrs[1], e.Instrs[0]
	}}
	lpasses.PassCSE.Apply(m)
	breaker.Apply(m)
	if err := m.Verify(); err != nil {
		t.Errorf("Verify does not model dominance and should accept: %v", err)
	}
	if err := Invariants(m); err == nil {
		t.Fatal("Invariants must reject the broken module")
	}
}

// buildMLIRLoop returns a module with one affine.for over a memref and the
// loop op itself, for directive-attr mutation.
func buildMLIRLoop(t *testing.T) (*mlir.Module, *mlir.Op) {
	t.Helper()
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{8}, mlir.F32())
	_, args := m.AddFunc("k", []*mlir.Type{ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("k")))
	b.AffineForConst(0, 8, 1, func(b *mlir.Builder, i *mlir.Value) {
		b.AffineStore(b.AffineLoad(args[0], i), args[0], i)
	})
	b.Return()
	var forOp *mlir.Op
	mlir.Walk(m.FindFunc("k"), func(op *mlir.Op) bool {
		if op.Name == mlir.OpAffineFor {
			forOp = op
		}
		return true
	})
	if forOp == nil {
		t.Fatal("fixture has no affine.for")
	}
	return m, forOp
}

func TestMLIRDirectivesFiring(t *testing.T) {
	m, forOp := buildMLIRLoop(t)
	forOp.SetAttr(mlir.AttrII, mlir.I(2)) // II without pipeline: warning
	ds := MLIRDirectives(m)
	if len(ds) != 1 || ds[0].Severity != diag.SevWarning {
		t.Fatalf("want 1 warning, got %v", ds)
	}
	if err := MLIRInvariants(m); err != nil {
		t.Errorf("warnings must not fail the invariant gate: %v", err)
	}

	forOp.SetAttr(mlir.AttrPipeline, mlir.UnitAttr{})
	forOp.SetAttr(mlir.AttrII, mlir.I(0)) // malformed payload: error
	if err := MLIRInvariants(m); err == nil {
		t.Error("hls.ii=0 must fail the MLIR invariant gate")
	}
}

func TestMLIRDirectivesNonFiring(t *testing.T) {
	m, forOp := buildMLIRLoop(t)
	forOp.SetAttr(mlir.AttrPipeline, mlir.UnitAttr{})
	forOp.SetAttr(mlir.AttrII, mlir.I(1))
	if ds := MLIRDirectives(m); len(ds) != 0 {
		t.Errorf("well-formed directives should be clean: %v", ds)
	}
	if err := MLIRInvariants(m); err != nil {
		t.Errorf("clean module must pass the gate: %v", err)
	}
}
