package oracle

import (
	"errors"
	"testing"

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
