package interp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/llvm"
)

// cmpModule builds i1 @cmp(T %a, T %b) { ret (icmp|fcmp) pred %a, %b }.
func cmpModule(fcmp bool, pred string) *llvm.Module {
	ty := llvm.I64()
	if fcmp {
		ty = llvm.DoubleT()
	}
	m := llvm.NewModule("t")
	f := llvm.NewFunction("cmp", llvm.I1(), &llvm.Param{Name: "a", Ty: ty}, &llvm.Param{Name: "b", Ty: ty})
	m.AddFunc(f)
	b := llvm.NewBuilder(f)
	b.SetBlock(f.AddBlock("entry"))
	if fcmp {
		b.Ret(b.FCmp(pred, f.Params[0], f.Params[1]))
	} else {
		b.Ret(b.ICmp(pred, f.Params[0], f.Params[1]))
	}
	return m
}

func TestICmpPredicateTable(t *testing.T) {
	// Operand pairs: less, equal, greater, and signed-negative vs positive
	// (which flips between the signed and unsigned orders).
	pairs := [][2]int64{{1, 2}, {2, 2}, {3, 2}, {-1, 2}}
	want := map[string][4]bool{
		"eq":  {false, true, false, false},
		"ne":  {true, false, true, true},
		"slt": {true, false, false, true},
		"sle": {true, true, false, true},
		"sgt": {false, false, true, false},
		"sge": {false, true, true, false},
		"ult": {true, false, false, false},
		"ule": {true, true, false, false},
		"ugt": {false, false, true, true},
		"uge": {false, true, true, true},
	}
	for pred, row := range want {
		mc := NewMachine(cmpModule(false, pred))
		for i, p := range pairs {
			got, _, err := mc.Run(context.Background(), "cmp", IntArg(p[0]), IntArg(p[1]))
			if err != nil {
				t.Fatalf("icmp %s %d, %d: %v", pred, p[0], p[1], err)
			}
			if (got != 0) != row[i] {
				t.Errorf("icmp %s %d, %d = %d, want %v", pred, p[0], p[1], got, row[i])
			}
		}
	}
}

func TestFCmpPredicateTable(t *testing.T) {
	// Operand pairs: less, equal, greater, and unordered (NaN).
	nan := math.NaN()
	pairs := [][2]float64{{1, 2}, {2, 2}, {3, 2}, {nan, 2}}
	want := map[string][4]bool{
		"false": {false, false, false, false},
		"oeq":   {false, true, false, false},
		"ogt":   {false, false, true, false},
		"oge":   {false, true, true, false},
		"olt":   {true, false, false, false},
		"ole":   {true, true, false, false},
		"one":   {true, false, true, false},
		"ord":   {true, true, true, false},
		"ueq":   {false, true, false, true},
		"ugt":   {false, false, true, true},
		"uge":   {false, true, true, true},
		"ult":   {true, false, false, true},
		"ule":   {true, true, false, true},
		"une":   {true, false, true, true},
		"uno":   {false, false, false, true},
		"true":  {true, true, true, true},
	}
	if len(want) != 16 {
		t.Fatalf("table covers %d predicates, LLVM defines 16", len(want))
	}
	for pred, row := range want {
		mc := NewMachine(cmpModule(true, pred))
		for i, p := range pairs {
			got, _, err := mc.Run(context.Background(), "cmp", FloatArg(p[0]), FloatArg(p[1]))
			if err != nil {
				t.Fatalf("fcmp %s %g, %g: %v", pred, p[0], p[1], err)
			}
			if (got != 0) != row[i] {
				t.Errorf("fcmp %s %g, %g = %d, want %v", pred, p[0], p[1], got, row[i])
			}
		}
	}
}

func TestUnknownPredicateIsAnOrdinaryError(t *testing.T) {
	for _, tc := range []struct {
		fcmp bool
		pred string
	}{{false, "foo"}, {false, "oeq"}, {true, "bar"}, {true, "slt"}} {
		mc := NewMachine(cmpModule(tc.fcmp, tc.pred))
		_, _, err := mc.Run(context.Background(), "cmp", IntArg(1), IntArg(2))
		if err == nil {
			t.Errorf("predicate %q (fcmp=%v) must error, not evaluate", tc.pred, tc.fcmp)
			continue
		}
		if _, ok := AsTrap(err); ok {
			t.Errorf("predicate %q: an unknown predicate is not a runtime trap: %v", tc.pred, err)
		}
		if !strings.Contains(err.Error(), "unsupported") || !strings.Contains(err.Error(), tc.pred) {
			t.Errorf("predicate %q: error %q does not name it", tc.pred, err)
		}
	}
}
