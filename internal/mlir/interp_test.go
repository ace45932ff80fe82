package mlir

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestInterpScalarOps(t *testing.T) {
	m := NewModule()
	ty := MemRef([]int64{6}, F64())
	ity := MemRef([]int64{6}, I64())
	_, args := m.AddFunc("ops", []*Type{ty, ity}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("ops")))
	i0 := b.ConstantIndex(0)
	i1 := b.ConstantIndex(1)
	i2 := b.ConstantIndex(2)
	i3 := b.ConstantIndex(3)
	i4 := b.ConstantIndex(4)
	i5 := b.ConstantIndex(5)
	f2 := b.ConstantFloat(2, F64())
	f3 := b.ConstantFloat(3, F64())
	b.AffineStore(b.AddF(f2, f3), args[0], i0) // 5
	b.AffineStore(b.SubF(f2, f3), args[0], i1) // -1
	b.AffineStore(b.MulF(f2, f3), args[0], i2) // 6
	b.AffineStore(b.DivF(f3, f2), args[0], i3) // 1.5
	b.AffineStore(b.NegF(f2), args[0], i4)     // -2
	sqrtv := b.Create(OpMathSqrt, []*Value{b.ConstantFloat(9, F64())}, []*Type{F64()}).Result(0)
	b.AffineStore(sqrtv, args[0], i5) // 3

	c7 := b.ConstantInt(7, I64())
	c3 := b.ConstantInt(3, I64())
	st := func(v *Value, at *Value) {
		b.Create(OpAffineStore, []*Value{v, args[1], at}, nil).SetAttr(AttrMap, AffineMapAttr{IdentityMap(1)})
	}
	st(b.AddI(c7, c3), i0)  // 10
	st(b.SubI(c7, c3), i1)  // 4
	st(b.MulI(c7, c3), i2)  // 21
	st(b.DivSI(c7, c3), i3) // 2
	st(b.RemSI(c7, c3), i4) // 1
	st(b.MinSI(c7, c3), i5) // 3
	b.Return()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	fb := NewMemBuf(ty)
	ib := NewMemBuf(ity)
	if err := m.Interpret("ops", fb, ib); err != nil {
		t.Fatal(err)
	}
	wantF := []float64{5, -1, 6, 1.5, -2, 3}
	for i, w := range wantF {
		if fb.F[i] != w {
			t.Errorf("float slot %d = %g, want %g", i, fb.F[i], w)
		}
	}
	wantI := []int64{10, 4, 21, 2, 1, 3}
	for i, w := range wantI {
		if ib.I[i] != w {
			t.Errorf("int slot %d = %d, want %d", i, ib.I[i], w)
		}
	}
}

func TestInterpSelectAndCmp(t *testing.T) {
	m := NewModule()
	ty := MemRef([]int64{2}, F64())
	_, args := m.AddFunc("sel", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("sel")))
	i0 := b.ConstantIndex(0)
	i1 := b.ConstantIndex(1)
	a := b.ConstantFloat(1, F64())
	c := b.ConstantFloat(2, F64())
	lt := b.CmpF(PredOLT, a, c)
	b.AffineStore(b.Select(lt, a, c), args[0], i0) // 1
	ge := b.CmpI(PredSGE, i1, i0)
	b.AffineStore(b.Select(ge, c, a), args[0], i1) // 2
	b.Return()
	buf := NewMemBuf(ty)
	if err := m.Interpret("sel", buf); err != nil {
		t.Fatal(err)
	}
	if buf.F[0] != 1 || buf.F[1] != 2 {
		t.Errorf("select results: %v", buf.F)
	}
}

func TestInterpSCFIfBothArms(t *testing.T) {
	m := NewModule()
	ty := MemRef([]int64{4}, F64())
	_, args := m.AddFunc("arms", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("arms")))
	b.AffineForConst(0, 4, 1, func(b *Builder, i *Value) {
		two := b.ConstantIndex(2)
		cond := b.CmpI(PredSLT, i, two)
		b.SCFIf(cond, func(b *Builder) {
			v := b.ConstantFloat(1, F64())
			b.AffineStore(v, args[0], i)
		}, func(b *Builder) {
			v := b.ConstantFloat(-1, F64())
			b.AffineStore(v, args[0], i)
		})
	})
	b.Return()
	buf := NewMemBuf(ty)
	if err := m.Interpret("arms", buf); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, -1, -1}
	for i, w := range want {
		if buf.F[i] != w {
			t.Errorf("arms[%d] = %g, want %g", i, buf.F[i], w)
		}
	}
}

func TestInterpErrors(t *testing.T) {
	ty := MemRef([]int64{4}, F64())

	t.Run("missing function", func(t *testing.T) {
		m := NewModule()
		if err := m.Interpret("ghost"); err == nil {
			t.Error("expected missing-function error")
		}
	})

	t.Run("wrong arg count", func(t *testing.T) {
		m := NewModule()
		m.AddFunc("f", []*Type{ty}, nil)
		b := NewBuilder(FuncBody(m.FindFunc("f")))
		b.Return()
		if err := m.Interpret("f"); err == nil {
			t.Error("expected arity error")
		}
	})

	t.Run("type mismatch", func(t *testing.T) {
		m := NewModule()
		m.AddFunc("f", []*Type{ty}, nil)
		b := NewBuilder(FuncBody(m.FindFunc("f")))
		b.Return()
		wrong := NewMemBuf(MemRef([]int64{8}, F64()))
		if err := m.Interpret("f", wrong); err == nil {
			t.Error("expected shape mismatch error")
		}
	})

	t.Run("out of bounds", func(t *testing.T) {
		m := NewModule()
		_, args := m.AddFunc("oob", []*Type{ty}, nil)
		b := NewBuilder(FuncBody(m.FindFunc("oob")))
		i9 := b.ConstantIndex(9)
		v := b.ConstantFloat(1, F64())
		b.AffineStore(v, args[0], i9)
		b.Return()
		err := m.Interpret("oob", NewMemBuf(ty))
		if err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Errorf("expected bounds error, got %v", err)
		}
	})

	t.Run("division by zero", func(t *testing.T) {
		m := NewModule()
		_, args := m.AddFunc("dz", []*Type{MemRef([]int64{1}, I64())}, nil)
		b := NewBuilder(FuncBody(m.FindFunc("dz")))
		z := b.ConstantInt(0, I64())
		one := b.ConstantInt(1, I64())
		q := b.DivSI(one, z)
		op := NewOp(OpAffineStore, []*Value{q, args[0], b.ConstantIndex(0)}, nil)
		op.SetAttr(AttrMap, AffineMapAttr{IdentityMap(1)})
		b.Block().Append(op)
		b.Return()
		if err := m.Interpret("dz", NewMemBuf(MemRef([]int64{1}, I64()))); err == nil {
			t.Error("expected division-by-zero error")
		}
	})

	// A dim or symbol position past the map's operands (the parser accepts
	// any dN/sN) is an error, not a read of another operand's value or a
	// panic.
	for _, e := range []*AffineExpr{Dim(1), Sym(1), Add(Dim(0), Sym(3))} {
		t.Run("map position "+e.String(), func(t *testing.T) {
			m := NewModule()
			_, args := m.AddFunc("pos", []*Type{MemRef([]int64{1}, I64())}, nil)
			b := NewBuilder(FuncBody(m.FindFunc("pos")))
			v := b.AffineApply(&AffineMap{NumDims: 1, NumSyms: 1, Exprs: []*AffineExpr{e}}, b.ConstantIndex(0), b.ConstantIndex(5))
			b.Store(v, args[0], b.ConstantIndex(0))
			b.Return()
			err := m.Interpret("pos", NewMemBuf(MemRef([]int64{1}, I64())))
			if err == nil || !strings.Contains(err.Error(), "applied to 2 operands") {
				t.Errorf("expected an operand error, got %v", err)
			}
		})
	}
}

func TestInterpF32Rounding(t *testing.T) {
	// f32 arithmetic must round per op, like hardware would.
	m := NewModule()
	ty := MemRef([]int64{1}, F32())
	_, args := m.AddFunc("r", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("r")))
	big := b.ConstantFloat(1e8, F32())
	one := b.ConstantFloat(1, F32())
	s := b.AddF(big, one)
	b.AffineStore(s, args[0], b.ConstantIndex(0))
	b.Return()
	buf := NewMemBuf(ty)
	if err := m.Interpret("r", buf); err != nil {
		t.Fatal(err)
	}
	if buf.F[0] != float64(float32(1e8)) {
		t.Errorf("f32 addition not rounded: %g", buf.F[0])
	}
}

func TestCloneOpDeep(t *testing.T) {
	m := NewModule()
	ty := MemRef([]int64{4}, F64())
	_, args := m.AddFunc("src", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("src")))
	loop := b.AffineForConst(0, 4, 1, func(b *Builder, i *Value) {
		v := b.AffineLoad(args[0], i)
		b.AffineStore(b.AddF(v, v), args[0], i)
	})
	b.Return()

	vmap := map[*Value]*Value{}
	clone := CloneOp(loop, vmap, nil)
	if clone == loop {
		t.Fatal("clone is the original")
	}
	if len(clone.Regions) != 1 || len(clone.Regions[0].Blocks) != 1 {
		t.Fatal("region structure not cloned")
	}
	origBody := loop.Regions[0].Blocks[0]
	cloneBody := clone.Regions[0].Blocks[0]
	if cloneBody == origBody || cloneBody.Args[0] == origBody.Args[0] {
		t.Error("body not deep-copied")
	}
	if len(cloneBody.Ops) != len(origBody.Ops) {
		t.Error("ops not copied")
	}
	// Cloned ops must reference cloned values, not originals.
	for _, op := range cloneBody.Ops {
		for _, v := range op.Operands {
			if v == origBody.Args[0] {
				t.Error("clone references original IV")
			}
		}
	}
	// External references (the memref arg) stay shared.
	load := cloneBody.Ops[0]
	if load.Operands[0] != args[0] {
		t.Error("external operand should remain shared")
	}
}

// cmpKernel stores pred(l, r) for each operand pair into an i64 memref.
func cmpKernel(float bool, pred string, pairs [][2]float64) (*Module, *MemBuf) {
	m := NewModule()
	ty := MemRef([]int64{int64(len(pairs))}, I64())
	_, args := m.AddFunc("cmp", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("cmp")))
	for i, p := range pairs {
		var c *Value
		if float {
			c = b.CmpF(pred, b.ConstantFloat(p[0], F64()), b.ConstantFloat(p[1], F64()))
		} else {
			c = b.CmpI(pred, b.ConstantInt(int64(p[0]), I64()), b.ConstantInt(int64(p[1]), I64()))
		}
		one, zero := b.ConstantInt(1, I64()), b.ConstantInt(0, I64())
		b.AffineStore(b.Select(c, one, zero), args[0], b.ConstantIndex(int64(i)))
	}
	b.Return()
	return m, NewMemBuf(ty)
}

func TestInterpCmpPredicateTable(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		float bool
		pairs [][2]float64
		want  map[string][]int64
	}{
		{false, [][2]float64{{1, 2}, {2, 2}, {3, 2}}, map[string][]int64{
			PredEQ: {0, 1, 0}, PredNE: {1, 0, 1},
			PredSLT: {1, 0, 0}, PredSLE: {1, 1, 0}, PredSGT: {0, 0, 1}, PredSGE: {0, 1, 1},
		}},
		{true, [][2]float64{{1, 2}, {2, 2}, {3, 2}, {nan, 2}}, map[string][]int64{
			PredOEQ: {0, 1, 0, 0}, PredONE: {1, 0, 1, 0},
			PredOLT: {1, 0, 0, 0}, PredOLE: {1, 1, 0, 0}, PredOGT: {0, 0, 1, 0}, PredOGE: {0, 1, 1, 0},
		}},
	} {
		for pred, want := range tc.want {
			m, buf := cmpKernel(tc.float, pred, tc.pairs)
			if err := m.Interpret("cmp", buf); err != nil {
				t.Fatalf("%s: %v", pred, err)
			}
			for i := range want {
				if buf.I[i] != want[i] {
					t.Errorf("%s %v = %d, want %d", pred, tc.pairs[i], buf.I[i], want[i])
				}
			}
		}
	}
}

func TestInterpUnknownPredicateErrors(t *testing.T) {
	for _, tc := range []struct {
		float bool
		pred  string
	}{{false, "ult"}, {false, "oeq"}, {true, "ueq"}, {true, "slt"}} {
		m, buf := cmpKernel(tc.float, tc.pred, [][2]float64{{1, 2}})
		err := m.Interpret("cmp", buf)
		if err == nil || !strings.Contains(err.Error(), "unsupported") || !strings.Contains(err.Error(), tc.pred) {
			t.Errorf("predicate %q (float=%v): err = %v, want an unsupported-predicate error", tc.pred, tc.float, err)
		}
	}
}

// TestInterpAffineApplyMatchesEvalQuick checks the interpreter's prepared
// affine evaluation against AffineExpr.Eval, including int64 wraparound.
func TestInterpAffineApplyMatchesEvalQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var exprs []*AffineExpr
		for i := 0; i < 4; i++ {
			exprs = append(exprs, randomAffineExpr(r, 3, 2, 1))
		}
		in := []int64{r.Int63n(200) - 100, r.Int63() - 1<<62, r.Int63n(200) - 100}
		m := NewModule()
		ty := MemRef([]int64{int64(len(exprs))}, I64())
		_, args := m.AddFunc("apply", []*Type{ty}, nil)
		b := NewBuilder(FuncBody(m.FindFunc("apply")))
		var ops []*Value
		for _, v := range in {
			ops = append(ops, b.ConstantIndex(v))
		}
		for i, e := range exprs {
			b.Store(b.AffineApply(NewMap(2, 1, e), ops...), args[0], b.ConstantIndex(int64(i)))
		}
		b.Return()
		buf := NewMemBuf(ty)
		if err := m.Interpret("apply", buf); err != nil {
			t.Log(err)
			return false
		}
		for i, e := range exprs {
			if want := e.Eval(in[:2], in[2:]); buf.I[i] != want {
				t.Logf("%s at %v = %d, want %d", e, in, buf.I[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}
