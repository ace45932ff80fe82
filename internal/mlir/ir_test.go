package mlir

import (
	"strings"
	"testing"
)

// buildVecAdd builds: func @vecadd(%a, %b, %c: memref<16xf32>) with an
// affine loop adding elementwise.
func buildVecAdd() *Module {
	m := NewModule()
	ty := MemRef([]int64{16}, F32())
	_, args := m.AddFunc("vecadd", []*Type{ty, ty, ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("vecadd")))
	b.AffineForConst(0, 16, 1, func(b *Builder, iv *Value) {
		x := b.AffineLoad(args[0], iv)
		y := b.AffineLoad(args[1], iv)
		s := b.AddF(x, y)
		b.AffineStore(s, args[2], iv)
	})
	b.Return()
	return m
}

func TestBuildAndVerify(t *testing.T) {
	m := buildVecAdd()
	if err := m.Verify(); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	f := m.FindFunc("vecadd")
	if f == nil {
		t.Fatal("function not found")
	}
	if FuncName(f) != "vecadd" {
		t.Errorf("FuncName = %q", FuncName(f))
	}
	body := FuncBody(f)
	if len(body.Ops) != 2 {
		t.Fatalf("body has %d ops, want 2 (loop + return)", len(body.Ops))
	}
	loop, ok := AsAffineFor(body.Ops[0])
	if !ok {
		t.Fatal("first op should be affine.for")
	}
	lo, hi, cok := loop.ConstantBounds()
	if !cok || lo != 0 || hi != 16 {
		t.Errorf("bounds = %d..%d ok=%v", lo, hi, cok)
	}
	if tc, ok := loop.ConstantTripCount(); !ok || tc != 16 {
		t.Errorf("trip count = %d ok=%v", tc, ok)
	}
}

func TestWalkCountsOps(t *testing.T) {
	m := buildVecAdd()
	count := map[string]int{}
	Walk(m.Op, func(o *Op) bool {
		count[o.Name]++
		return true
	})
	if count[OpAffineLoad] != 2 || count[OpAffineStore] != 1 || count[OpAddF] != 1 {
		t.Errorf("op counts wrong: %v", count)
	}
	if count[OpAffineYield] != 1 {
		t.Errorf("missing affine.yield: %v", count)
	}
}

func TestWalkSkipRegions(t *testing.T) {
	m := buildVecAdd()
	var seen []string
	Walk(m.Op, func(o *Op) bool {
		seen = append(seen, o.Name)
		return o.Name != OpAffineFor // don't descend into the loop
	})
	for _, n := range seen {
		if n == OpAffineLoad {
			t.Error("Walk descended into skipped region")
		}
	}
}

func TestReplaceAllUses(t *testing.T) {
	m := buildVecAdd()
	f := m.FindFunc("vecadd")
	args := FuncBody(f).Args
	// Redirect all uses of %a to %b.
	ReplaceAllUses(f, args[0], args[1])
	if HasUses(f, args[0]) {
		t.Error("old value still has uses")
	}
	if !HasUses(f, args[1]) {
		t.Error("new value should have uses")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after RAUW: %v", err)
	}
}

func TestBlockInsertRemove(t *testing.T) {
	blk := NewBlock()
	b := NewBuilder(blk)
	v1 := b.ConstantIndex(1)
	v3 := b.ConstantIndex(3)
	mid := NewOp(OpConstant, nil, []*Type{Index()})
	mid.SetAttr(AttrValue, IntAttr{Value: 2, Ty: Index()})
	blk.InsertBefore(mid, v3.Def)
	if blk.Ops[1] != mid {
		t.Fatal("InsertBefore misplaced op")
	}
	after := NewOp(OpConstant, nil, []*Type{Index()})
	after.SetAttr(AttrValue, IntAttr{Value: 4, Ty: Index()})
	blk.InsertAfter(after, v3.Def)
	if blk.Ops[3] != after {
		t.Fatal("InsertAfter misplaced op")
	}
	blk.Remove(mid)
	if len(blk.Ops) != 3 || blk.Ops[0] != v1.Def {
		t.Fatal("Remove broke op list")
	}
	if mid.Block() != nil {
		t.Error("removed op still has parent")
	}
}

func TestEnclosingFunc(t *testing.T) {
	m := buildVecAdd()
	f := m.FindFunc("vecadd")
	var loadOp *Op
	Walk(m.Op, func(o *Op) bool {
		if o.Name == OpAffineLoad {
			loadOp = o
		}
		return true
	})
	if EnclosingFunc(loadOp) != f {
		t.Error("EnclosingFunc failed from nested op")
	}
	if EnclosingFunc(f) != f {
		t.Error("EnclosingFunc of func should be itself")
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	m := NewModule()
	ty := MemRef([]int64{4}, F32())
	_, args := m.AddFunc("bad", []*Type{ty}, nil)
	b := NewBuilder(FuncBody(m.FindFunc("bad")))
	// Load with too many indices.
	i := b.ConstantIndex(0)
	op := NewOp(OpLoad, []*Value{args[0], i, i}, []*Type{F32()})
	b.Block().Append(op)
	b.Return()
	if err := m.Verify(); err == nil {
		t.Error("verify should reject rank-mismatched load")
	}
}

func TestVerifyCatchesTypeMismatch(t *testing.T) {
	m := NewModule()
	_, _ = m.AddFunc("bad2", nil, nil)
	blk := FuncBody(m.FindFunc("bad2"))
	b := NewBuilder(blk)
	x := b.ConstantFloat(1, F32())
	y := b.ConstantFloat(2, F64())
	op := NewOp(OpAddF, []*Value{x, y}, []*Type{F32()})
	blk.Append(op)
	b.Return()
	if err := m.Verify(); err == nil {
		t.Error("verify should reject f32+f64")
	}
}

func TestVerifyCatchesUseBeforeDef(t *testing.T) {
	m := NewModule()
	_, _ = m.AddFunc("ubd", nil, nil)
	blk := FuncBody(m.FindFunc("ubd"))
	b := NewBuilder(blk)
	// Build a constant, then an add placed BEFORE the constant.
	x := b.ConstantIndex(1)
	add := NewOp(OpAddI, []*Value{x, x}, []*Type{Index()})
	blk.InsertBefore(add, x.Def)
	b.Return()
	if err := m.Verify(); err == nil {
		t.Error("verify should reject use before def")
	}
}

func TestOpAttrHelpers(t *testing.T) {
	op := NewOp("test.op", nil, nil)
	op.SetAttr("n", I(5))
	op.SetAttr("s", StringAttr("hi"))
	op.SetAttr("m", AffineMapAttr{ConstantMap(3)})
	if v, ok := op.IntAttr("n"); !ok || v != 5 {
		t.Error("IntAttr failed")
	}
	if s, ok := op.StringAttr("s"); !ok || s != "hi" {
		t.Error("StringAttr failed")
	}
	if mp, ok := op.MapAttr("m"); !ok || mp == nil {
		t.Error("MapAttr failed")
	}
	if _, ok := op.IntAttr("missing"); ok {
		t.Error("missing attr should not be found")
	}
	if !op.HasAttr("n") || op.HasAttr("zzz") {
		t.Error("HasAttr wrong")
	}
}

func TestDialectName(t *testing.T) {
	if NewOp(OpAddF, nil, nil).Dialect() != "arith" {
		t.Error("dialect of arith.addf")
	}
	if NewOp("standalone", nil, nil).Dialect() != "standalone" {
		t.Error("dialect of dotless name")
	}
}

func TestPrintContainsStructure(t *testing.T) {
	m := buildVecAdd()
	out := m.Print()
	for _, want := range []string{
		"func.func @vecadd(%arg0: memref<16xf32>",
		"affine.for",
		"= 0 to 16 step 1",
		"affine.load %arg0[",
		"arith.addf",
		"affine.store",
		"func.return",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed module missing %q:\n%s", want, out)
		}
	}
}

func TestOpNamesUsed(t *testing.T) {
	m := buildVecAdd()
	names := m.OpNamesUsed()
	has := func(n string) bool {
		for _, x := range names {
			if x == n {
				return true
			}
		}
		return false
	}
	if !has(OpAffineFor) || !has(OpAddF) || !has(OpModule) {
		t.Errorf("OpNamesUsed = %v", names)
	}
}

// TestReplaceUses covers the one-sweep replacement routine: chains resolve
// to their end, an entry mapping a value to itself changes nothing, entries
// reach ops created after they were recorded, and sequential single-value
// replacements (the three-step swap loop interchange performs) keep their
// step-by-step result, which one chained map would not.
func TestReplaceUses(t *testing.T) {
	const a, b, c, tmp = 0, 1, 2, 3
	cases := []struct {
		name  string
		steps [][][2]int // each step is one ReplaceUses call over {old, new} pairs
		users [][]int    // operands of the ops built after the steps are recorded
		want  [][]int
	}{
		{"chain", [][][2]int{{{a, b}, {b, c}}}, [][]int{{a, b}, {c, a}}, [][]int{{c, c}, {c, c}}},
		{"self", [][][2]int{{{a, a}}}, [][]int{{a, b}}, [][]int{{a, b}}},
		{"self-then-chain", [][][2]int{{{a, a}, {b, a}}}, [][]int{{b, c}}, [][]int{{a, c}}},
		{"later-op", [][][2]int{{{a, b}}}, [][]int{{a, a}, {c, b}}, [][]int{{b, b}, {c, b}}},
		{"swap", [][][2]int{{{a, tmp}}, {{b, a}}, {{tmp, b}}}, [][]int{{a, b}, {b, c}}, [][]int{{b, a}, {a, c}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModule()
			f, args := m.AddFunc("f", []*Type{Index(), Index(), Index()}, nil)
			vals := append(append([]*Value(nil), args...), &Value{Ty: Index()})
			steps := make([]Replacements, len(tc.steps))
			for i, pairs := range tc.steps {
				steps[i] = Replacements{}
				for _, p := range pairs {
					steps[i][vals[p[0]]] = vals[p[1]]
				}
			}
			body := FuncBody(f)
			var users []*Op
			for _, ops := range tc.users {
				var operands []*Value
				for _, o := range ops {
					operands = append(operands, vals[o])
				}
				op := NewOp(OpAddI, operands, []*Type{Index()})
				body.Append(op)
				users = append(users, op)
			}
			for _, r := range steps {
				ReplaceUses(f, r)
			}
			for i, op := range users {
				for j, v := range op.Operands {
					if want := vals[tc.want[i][j]]; v != want {
						t.Errorf("op %d operand %d = value %d, want %d",
							i, j, indexOf(vals, v), tc.want[i][j])
					}
				}
			}
		})
	}
}

func indexOf(vals []*Value, v *Value) int {
	for i, x := range vals {
		if x == v {
			return i
		}
	}
	return -1
}

func TestResolveRejectsCycles(t *testing.T) {
	x, y := &Value{Ty: Index()}, &Value{Ty: Index()}
	defer func() {
		if recover() == nil {
			t.Fatal("a two-value cycle resolved without a panic")
		}
	}()
	Replacements{x: y, y: x}.Resolve(x)
}

// TestWalkVisitsCopiedOpList checks Walk's copy-before-visit contract on
// both sides of the stack buffer: erasing the visited op and inserting new
// ones neither skips an original op nor visits an inserted one.
func TestWalkVisitsCopiedOpList(t *testing.T) {
	for _, n := range []int{3, walkBuf, walkBuf + 9} {
		m := NewModule()
		f, _ := m.AddFunc("f", nil, nil)
		body := FuncBody(f)
		b := NewBuilder(body)
		orig := map[*Op]bool{}
		for i := 0; i < n; i++ {
			orig[b.ConstantIndex(int64(i)).Def] = true
		}
		visited := 0
		Walk(f, func(op *Op) bool {
			if op == f {
				return true
			}
			if !orig[op] {
				t.Fatalf("n=%d: visited an op inserted during the walk", n)
			}
			visited++
			body.InsertBefore(NewOp(OpConstant, nil, []*Type{Index()}), op)
			op.Erase()
			return true
		})
		if visited != n {
			t.Errorf("n=%d: visited %d ops", n, visited)
		}
	}
}
