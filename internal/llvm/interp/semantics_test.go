package interp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/llvm"
)

// The tests in this file pin observable semantics of the machine — trap
// kinds, error text, and the exact fuel cost of a fixture — so that changes
// to the execution model cannot drift them.

// buildNonDominating builds
//
//	i64 @nd(i1 %c) {
//	entry: br i1 %c, label %def, label %skip
//	def:   %x = add i64 1, 1 ; br label %join
//	skip:  br label %join
//	join:  %y = add i64 %x, 1 ; ret i64 %y
//	}
//
// where %x does not dominate its use in %join.
func buildNonDominating() *llvm.Module {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("nd", llvm.I64(), &llvm.Param{Name: "c", Ty: llvm.I1()})
	m.AddFunc(f)
	entry, def, skip, join := f.AddBlock("entry"), f.AddBlock("def"), f.AddBlock("skip"), f.AddBlock("join")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.CondBr(f.Params[0], def, skip)
	b.SetBlock(def)
	x := b.Add(llvm.CI(llvm.I64(), 1), llvm.CI(llvm.I64(), 1))
	x.Name = "x"
	b.Br(join)
	b.SetBlock(skip)
	b.Br(join)
	b.SetBlock(join)
	y := b.Add(x, llvm.CI(llvm.I64(), 1))
	y.Name = "y"
	b.Ret(y)
	return m
}

func TestUndefUseFromNonDominatingBlockTraps(t *testing.T) {
	mc := NewMachine(buildNonDominating())
	got, _, err := mc.Run(context.Background(), "nd", IntArg(1))
	if err != nil || got != 3 {
		t.Fatalf("nd(true) = %d, %v; want 3, nil", got, err)
	}
	_, _, err = mc.Run(context.Background(), "nd", IntArg(0))
	tr, ok := AsTrap(err)
	if !ok || tr.Kind != TrapUndef {
		t.Fatalf("nd(false) = %v, want TrapUndef", err)
	}
	const want = "in @nd %y: interp: undefined-value: use of undefined value %x"
	if err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
}

func TestPhiWithoutIncomingErrors(t *testing.T) {
	// entry branches to %join, but the phi there only names %other.
	m := llvm.NewModule("t")
	f := llvm.NewFunction("nophi", llvm.I64())
	m.AddFunc(f)
	entry, other, join := f.AddBlock("entry"), f.AddBlock("other"), f.AddBlock("join")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.Br(join)
	b.SetBlock(other)
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(llvm.I64())
	p.Name = "p"
	p.AddIncoming(llvm.CI(llvm.I64(), 7), other)
	b.Ret(p)
	_, _, err := NewMachine(m).Run(context.Background(), "nophi")
	if err == nil {
		t.Fatal("phi without an incoming for the predecessor must error")
	}
	const want = "interp: phi in %join has no incoming for %entry"
	if err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
	if _, ok := AsTrap(err); ok {
		t.Error("a malformed phi is an ordinary error, not a trap")
	}
}

// buildCountedSum builds a loop summing 0..9 through an alloca'd cell and
// a callee, so its fuel cost covers phis, memory, calls, and branches.
func buildCountedSum() *llvm.Module {
	m := llvm.NewModule("t")
	inc := llvm.NewFunction("inc", llvm.I64(), &llvm.Param{Name: "v", Ty: llvm.I64()})
	m.AddFunc(inc)
	b := llvm.NewBuilder(inc)
	b.SetBlock(inc.AddBlock("entry"))
	b.Ret(b.Add(inc.Params[0], llvm.CI(llvm.I64(), 1)))

	f := llvm.NewFunction("sum", llvm.I64())
	m.AddFunc(f)
	entry, loop, exit := f.AddBlock("entry"), f.AddBlock("loop"), f.AddBlock("exit")
	b = llvm.NewBuilder(f)
	b.SetBlock(entry)
	cell := b.Alloca(llvm.I64())
	b.Store(llvm.CI(llvm.I64(), 0), cell)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(llvm.I64())
	acc := b.Load(llvm.I64(), cell)
	b.Store(b.Add(acc, i), cell)
	next := b.Call("inc", llvm.I64(), i)
	i.AddIncoming(llvm.CI(llvm.I64(), 0), entry)
	i.AddIncoming(next, loop)
	b.CondBr(b.ICmp("slt", next, llvm.CI(llvm.I64(), 10)), loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Load(llvm.I64(), cell))
	return m
}

// countedSumFuel is the exact instruction count of @sum, measured before
// the slot-indexed execution model replaced the map environment.
const countedSumFuel = 85

func TestFuelBoundaryPinned(t *testing.T) {
	m := buildCountedSum()
	mc := NewMachine(m)
	mc.Fuel = countedSumFuel - 1
	if _, _, err := mc.Run(context.Background(), "sum"); !errors.Is(err, ErrFuel) {
		t.Fatalf("fuel %d: err = %v, want ErrFuel", countedSumFuel-1, err)
	}
	mc = NewMachine(m)
	mc.Fuel = countedSumFuel
	got, _, err := mc.Run(context.Background(), "sum")
	if err != nil || got != 45 {
		t.Fatalf("fuel %d: sum = %d, %v; want 45, nil", countedSumFuel, got, err)
	}
	if mc.Fuel != 0 {
		t.Errorf("remaining fuel = %d, want 0", mc.Fuel)
	}
}

func TestObserveSeesPhisAndResults(t *testing.T) {
	mc := NewMachine(buildCountedSum())
	var seen []string
	mc.Observe = func(in *llvm.Instr, v int64) {
		if in.Op == llvm.OpPhi || in.Op == llvm.OpCall {
			seen = append(seen, string(in.Op))
		}
	}
	if _, _, err := mc.Run(context.Background(), "sum"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(seen[:4], ","); got != "phi,call,phi,call" || len(seen) != 20 {
		t.Errorf("observed %d phi/call results starting %q, want 20 starting phi,call,phi,call", len(seen), got)
	}
}

// TestRecursiveActivationHasOwnRegisters: a recursive call starts from no
// defined values, even though the outer activation of the same function
// has defined some.
func TestRecursiveActivationHasOwnRegisters(t *testing.T) {
	m := llvm.NewModule("t")
	f := llvm.NewFunction("rec", llvm.I64(), &llvm.Param{Name: "d", Ty: llvm.I64()})
	m.AddFunc(f)
	entry, def, use := f.AddBlock("entry"), f.AddBlock("def"), f.AddBlock("use")
	b := llvm.NewBuilder(f)
	b.SetBlock(entry)
	b.CondBr(b.ICmp("eq", f.Params[0], llvm.CI(llvm.I64(), 0)), use, def)
	b.SetBlock(def)
	x := b.Add(llvm.CI(llvm.I64(), 5), llvm.CI(llvm.I64(), 0))
	x.Name = "x"
	r := b.Call("rec", llvm.I64(), llvm.CI(llvm.I64(), 0))
	r.Name = "r"
	b.Ret(r)
	b.SetBlock(use)
	y := b.Add(x, llvm.CI(llvm.I64(), 1))
	y.Name = "y"
	b.Ret(y)
	_, _, err := NewMachine(m).Run(context.Background(), "rec", IntArg(1))
	if tr, ok := AsTrap(err); !ok || tr.Kind != TrapUndef {
		t.Fatalf("rec(1) = %v, want TrapUndef from the inner activation", err)
	}
	const want = "in @rec %r: in @rec %y: interp: undefined-value: use of undefined value %x"
	if err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
}
