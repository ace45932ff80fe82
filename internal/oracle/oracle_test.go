package oracle

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/polybench"
	"repro/internal/translate"
)

func gemmModule(t *testing.T) *mlir.Module {
	t.Helper()
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	return k.Build(s)
}

func TestHarnessSelfConsistent(t *testing.T) {
	// The pristine module must pass its own oracle at every layer the
	// harness can execute it.
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("pristine structured module diverges from itself: %v", err)
	}
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("scf form diverges: %v", err)
	}
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckMLIR(m); err != nil {
		t.Errorf("cf form diverges: %v", err)
	}
	lm, err := translate.Translate(m, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckLLVM(lm); err != nil {
		t.Errorf("descriptor-ABI LLVM form diverges: %v", err)
	}
}

func TestDivergenceDetected(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	// Flip the kernel's multiply-accumulate into a multiply-subtract.
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		if o.Name == mlir.OpAddF {
			o.Name = mlir.OpSubF
			return false
		}
		return true
	})
	err = h.CheckMLIR(m)
	if err == nil {
		t.Fatal("corrupted kernel passed the oracle")
	}
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("expected a *Divergence, got %v", err)
	}
	if !IsMiscompile(err) {
		t.Error("a divergence must classify as a miscompile")
	}
}

func TestFuelClassifiesAsMiscompile(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	h.Fuel = 10
	err = h.CheckMLIR(gemmModule(t))
	if err == nil {
		t.Fatal("fuel budget of 10 should not complete gemm")
	}
	if !IsMiscompile(err) {
		t.Errorf("fuel exhaustion must classify as miscompile, got %v", err)
	}
}

func TestOracleLimitationIsNotMiscompile(t *testing.T) {
	if IsMiscompile(errors.New("interp: unsupported op foo.bar")) {
		t.Error("an unexecutable op is an oracle limitation, not a miscompile")
	}
	if IsMiscompile(errors.New("oracle: @gemm has 4 params, matching neither the direct ABI (3) nor the descriptor ABI (21)")) {
		t.Error("an unrecognized ABI is an oracle limitation, not a miscompile")
	}
}

func TestTrapClassifiesAsMiscompile(t *testing.T) {
	var trapErr error = &interp.Trap{Kind: interp.TrapOOB, Detail: "load past the end"}
	if !IsMiscompile(trapErr) {
		t.Error("an interpreter trap must classify as a miscompile")
	}
	if !IsMiscompile(interp.ErrFuel) {
		t.Error("LLVM-side fuel exhaustion must classify as a miscompile")
	}
}

func TestAllKernelsHarnessable(t *testing.T) {
	// Every polybench kernel must admit a reference execution — the
	// precondition for VerifySemantics covering the whole suite.
	for _, k := range polybench.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			m := k.Build(s)
			h, err := New(m, k.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.CheckMLIR(m); err != nil {
				t.Errorf("pristine %s diverges from itself: %v", k.Name, err)
			}
		})
	}
}

// TestNewFromLLVM covers the hls-adaptor CLI path: no MLIR in sight — the
// reference is the pre-adapt descriptor-ABI LLVM module, the shapes come
// off the adapted signature, and the adapted module must match the
// reference bit-for-bit (within ULP tolerance).
func TestNewFromLLVM(t *testing.T) {
	buildLL := func() *llvm.Module {
		m := gemmModule(t)
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
	pristine := buildLL()
	adapted := buildLL()
	if _, err := core.Adapt(adapted, core.Options{TopFunc: "gemm"}); err != nil {
		t.Fatal(err)
	}
	shapes, err := ShapesOf(adapted.FindFunc("gemm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 3 {
		t.Fatalf("gemm has %d ports, want 3", len(shapes))
	}
	h, err := NewFromLLVM(pristine, "gemm", shapes)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckLLVM(adapted); err != nil {
		t.Errorf("adapted module diverges from its own input: %v", err)
	}
	// And the harness still catches corruption of the adapted module.
	for _, f := range adapted.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == llvm.OpFAdd {
					in.Op = llvm.OpFSub
					goto corrupted
				}
			}
		}
	}
corrupted:
	err = h.CheckLLVM(adapted)
	if err == nil {
		t.Fatal("corrupted adapted module passed the oracle")
	}
	if !IsMiscompile(err) {
		t.Errorf("corruption must classify as miscompile, got %v", err)
	}
}

// TestHugeMemRefRefused: a client-declared shape past the interpreter's
// memory budget, as an argument or as a memref.alloc in the body, is an
// ordinary error returned before anything is allocated, not a panic, an
// out-of-memory kill or a miscompile verdict.
func TestHugeMemRefRefused(t *testing.T) {
	huge := mlir.MemRef([]int64{1000000000, 1000000000}, mlir.F32())
	overflow := mlir.MemRef([]int64{1 << 40, 1 << 40}, mlir.F32())
	small := mlir.MemRef([]int64{4}, mlir.F32())
	argModule := func(ty *mlir.Type) *mlir.Module {
		m := mlir.NewModule()
		f, _ := m.AddFunc("k", []*mlir.Type{ty}, nil)
		mlir.NewBuilder(mlir.FuncBody(f)).Return()
		return m
	}
	allocModule := func(ty *mlir.Type) *mlir.Module {
		m := mlir.NewModule()
		f, _ := m.AddFunc("k", []*mlir.Type{small}, nil)
		b := mlir.NewBuilder(mlir.FuncBody(f))
		b.Create(mlir.OpAlloc, nil, []*mlir.Type{ty})
		b.Return()
		return m
	}
	cases := []struct {
		name string
		m    *mlir.Module
	}{
		{"argument", argModule(huge)},
		{"overflowing argument", argModule(overflow)},
		{"alloc", allocModule(huge)},
		{"overflowing alloc", allocModule(overflow)},
	}
	for _, tc := range cases {
		_, err := New(tc.m, "k")
		if !errors.Is(err, mlir.ErrMemBudget) {
			t.Errorf("%s: err = %v, want the memory budget error", tc.name, err)
		}
		if IsMiscompile(err) {
			t.Errorf("%s: a budget refusal counts as a miscompile", tc.name)
		}
	}
	if _, err := NewFromLLVM(llvm.NewModule("m"), "k", []*mlir.Type{huge}); !errors.Is(err, mlir.ErrMemBudget) {
		t.Errorf("NewFromLLVM: err = %v, want the memory budget error", err)
	}
}
