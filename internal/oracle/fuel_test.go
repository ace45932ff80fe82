package oracle

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
)

// TestMLIRFuelBoundaryPinned pins the MLIR interpreter's exact op count for
// gemm MINI in all three forms the oracle executes, measured before the
// slot-indexed execution model replaced the map environment: fuel N-1 runs
// out, fuel N completes.
func TestMLIRFuelBoundaryPinned(t *testing.T) {
	m := gemmModule(t)
	h, err := New(m, "gemm")
	if err != nil {
		t.Fatal(err)
	}
	check := func(form string, n int64) {
		t.Helper()
		if err := m.InterpretWithFuel("gemm", n-1, h.freshMLIRBufs()...); !errors.Is(err, mlir.ErrFuel) {
			t.Errorf("%s: fuel %d: err = %v, want ErrFuel", form, n-1, err)
		}
		if err := m.InterpretWithFuel("gemm", n, h.freshMLIRBufs()...); err != nil {
			t.Errorf("%s: fuel %d: %v", form, n, err)
		}
	}
	check("affine", 8220)
	if err := lower.AffineToSCF(m); err != nil {
		t.Fatal(err)
	}
	check("scf", 8559)
	if err := lower.SCFToCF(m); err != nil {
		t.Fatal(err)
	}
	check("cf", 12217)
}

// TestLLVMBlockWithoutTerminatorRejected: a reachable block with no
// terminator and no fuel-spending instruction (only a phi) has no
// successor, and running it would spend no fuel, so under a background
// context nothing would stop it. The machine rejects it while preparing,
// promptly, and the oracle classifies that as its own limitation rather
// than a miscompile.
func TestLLVMBlockWithoutTerminatorRejected(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("spin", llvm.Void())
	m.AddFunc(f)
	entry, spin := f.AddBlock("entry"), f.AddBlock("spin")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(spin)
	b.SetBlock(spin)
	b.Phi(llvm.I64()).AddIncoming(llvm.CI(llvm.I64(), 0), entry)

	done := make(chan error, 1)
	go func() {
		_, _, err := interp.NewMachine(m).Run(context.Background(), "spin")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a block without a terminator must be an error")
		}
		if IsMiscompile(err) {
			t.Errorf("an unpreparable block is an oracle limitation, not a miscompile: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the machine did not return: the block re-enters itself")
	}
}
