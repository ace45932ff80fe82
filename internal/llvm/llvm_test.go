package llvm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty     *Type
		opaque string
		typed  string
	}{
		{Void(), "void", "void"},
		{I1(), "i1", "i1"},
		{I32(), "i32", "i32"},
		{I64(), "i64", "i64"},
		{FloatT(), "float", "float"},
		{DoubleT(), "double", "double"},
		{Ptr(FloatT()), "ptr", "float*"},
		{Ptr(nil), "ptr", "ptr"},
		{ArrayOf(8, DoubleT()), "[8 x double]", "[8 x double]"},
		{Ptr(ArrayOf(4, FloatT())), "ptr", "[4 x float]*"},
		{StructOf(I64(), Ptr(FloatT())), "{ i64, ptr }", "{ i64, float* }"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.opaque {
			t.Errorf("String() = %q, want %q", got, c.opaque)
		}
		if got := c.ty.TypedString(); got != c.typed {
			t.Errorf("TypedString() = %q, want %q", got, c.typed)
		}
	}
}

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int64
	}{
		{I1(), 1}, {I8(), 1}, {I32(), 4}, {I64(), 8},
		{FloatT(), 4}, {DoubleT(), 8}, {Ptr(nil), 8},
		{ArrayOf(10, FloatT()), 40},
		{ArrayOf(2, ArrayOf(3, DoubleT())), 48},
		{StructOf(I32(), DoubleT()), 12},
	}
	for _, c := range cases {
		if got := c.ty.SizeBytes(); got != c.size {
			t.Errorf("%s SizeBytes = %d, want %d", c.ty, got, c.size)
		}
	}
}

func TestTypeEqualityOpaquePointers(t *testing.T) {
	// Pointers compare equal regardless of pointee (opaque semantics).
	if !Ptr(FloatT()).Equal(Ptr(DoubleT())) {
		t.Error("pointers should compare equal regardless of pointee")
	}
	if ArrayOf(4, FloatT()).Equal(ArrayOf(5, FloatT())) {
		t.Error("different array lengths should differ")
	}
	if ArrayOf(4, FloatT()).Equal(ArrayOf(4, DoubleT())) {
		t.Error("different element types should differ")
	}
	if !StructOf(I32()).Equal(StructOf(I32())) {
		t.Error("identical structs should be equal")
	}
	if I32().Equal(nil) {
		t.Error("type should not equal nil")
	}
}

func TestIntTypeInterningQuick(t *testing.T) {
	f := func(w uint8) bool {
		width := int(w%64) + 1
		return IntT(width).Equal(IntT(width)) && IntT(width).Bits == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstIdent(t *testing.T) {
	if CI(I1(), 1).Ident() != "true" || CI(I1(), 0).Ident() != "false" {
		t.Error("i1 constants should print true/false")
	}
	if CI(I32(), -7).Ident() != "-7" {
		t.Error("negative int constant")
	}
	if (&Undef{Ty: I32()}).Ident() != "undef" {
		t.Error("undef ident")
	}
	if got := CF(DoubleT(), 1.5).Ident(); got != "1.5e+00" {
		t.Errorf("float ident = %q", got)
	}
}

// buildLoop constructs a canonical counted loop function.
func buildLoop(t *testing.T) (*Module, *Function) {
	t.Helper()
	m := NewModule("t")
	arr := ArrayOf(16, FloatT())
	f := NewFunction("k", Void(), &Param{Name: "x", Ty: Ptr(arr)})
	m.AddFunc(f)
	entry := f.AddBlock("entry")
	header := f.AddBlock("header")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := NewBuilder(f)
	b.SetBlock(entry)
	b.Br(header)
	b.SetBlock(header)
	iv := b.Phi(I64())
	cond := b.ICmp("slt", iv, CI(I64(), 16))
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	p := b.GEP(arr, f.Params[0], CI(I64(), 0), iv)
	v := b.Load(FloatT(), p)
	s := b.FAdd(v, CF(FloatT(), 1))
	b.Store(s, p)
	next := b.Add(iv, CI(I64(), 1))
	latch := b.Br(header)
	latch.Loop = &LoopMD{Pipeline: true, II: 1}
	b.SetBlock(exit)
	b.Ret(nil)
	iv.AddIncoming(CI(I64(), 0), entry)
	iv.AddIncoming(next, body)
	return m, f
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	m, _ := buildLoop(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("well-formed module rejected: %v", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	t.Run("missing terminator", func(t *testing.T) {
		m := NewModule("x")
		f := NewFunction("f", Void())
		m.AddFunc(f)
		f.AddBlock("entry") // empty, no terminator
		if err := m.Verify(); err == nil {
			t.Error("should reject block without terminator")
		}
	})
	t.Run("phi pred mismatch", func(t *testing.T) {
		m, f := buildLoop(t)
		// Remove one incoming edge from the phi.
		phi := f.FindBlock("header").Instrs[0]
		phi.Args = phi.Args[:1]
		phi.Blocks = phi.Blocks[:1]
		if err := m.Verify(); err == nil {
			t.Error("should reject phi with missing incoming")
		}
	})
	t.Run("type mismatch", func(t *testing.T) {
		m := NewModule("x")
		f := NewFunction("f", Void())
		m.AddFunc(f)
		blk := f.AddBlock("entry")
		b := NewBuilder(f)
		b.SetBlock(blk)
		bad := &Instr{Op: OpFAdd, Name: "bad", Ty: FloatT(),
			Args: []Value{CF(FloatT(), 1), CF(DoubleT(), 1)}}
		blk.Append(bad)
		b.Ret(nil)
		if err := m.Verify(); err == nil {
			t.Error("should reject fadd float/double mix")
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		m := NewModule("x")
		f := NewFunction("f", Void())
		m.AddFunc(f)
		blk := f.AddBlock("entry")
		a := &Instr{Op: OpAdd, Name: "dup", Ty: I32(), Args: []Value{CI(I32(), 1), CI(I32(), 2)}}
		c := &Instr{Op: OpAdd, Name: "dup", Ty: I32(), Args: []Value{CI(I32(), 1), CI(I32(), 2)}}
		blk.Append(a)
		blk.Append(c)
		blk.Append(&Instr{Op: OpRet})
		if err := m.Verify(); err == nil {
			t.Error("should reject duplicate SSA names")
		}
	})
	t.Run("non-i1 branch", func(t *testing.T) {
		m := NewModule("x")
		f := NewFunction("f", Void())
		m.AddFunc(f)
		e := f.AddBlock("entry")
		x := f.AddBlock("x")
		cbr := &Instr{Op: OpCondBr, Args: []Value{CI(I32(), 1)}, Blocks: []*Block{x, x}}
		e.Append(cbr)
		x.Append(&Instr{Op: OpRet})
		if err := m.Verify(); err == nil {
			t.Error("should reject i32 branch condition")
		}
	})
}

func TestPrintFormats(t *testing.T) {
	m, _ := buildLoop(t)
	txt := m.Print()
	for _, want := range []string{
		"define void @k(ptr %x)",
		"phi i64 [ 0, %entry ], [ %",
		"icmp slt i64",
		"getelementptr inbounds [16 x float], ptr %x, i64 0, i64",
		"load float, ptr",
		"fadd float",
		"br label %header, !llvm.loop !0",
		`!"llvm.loop.pipeline.enable", i1 true`,
		"ret void",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("printed module missing %q:\n%s", want, txt)
		}
	}
	// Typed flavor.
	m.Flavor = FlavorHLS
	typed := m.Print()
	if !strings.Contains(typed, "[16 x float]* %x") {
		t.Errorf("typed printing missing typed pointer:\n%s", typed)
	}
}

func TestBlockOps(t *testing.T) {
	f := NewFunction("f", Void())
	blk := f.AddBlock("entry")
	a := &Instr{Op: OpAdd, Name: "a", Ty: I32(), Args: []Value{CI(I32(), 1), CI(I32(), 2)}}
	c := &Instr{Op: OpAdd, Name: "c", Ty: I32(), Args: []Value{CI(I32(), 3), CI(I32(), 4)}}
	blk.Append(a)
	blk.Append(c)
	mid := &Instr{Op: OpAdd, Name: "b", Ty: I32(), Args: []Value{a, a}}
	blk.InsertBefore(mid, c)
	if blk.Instrs[1] != mid {
		t.Error("InsertBefore misplaced")
	}
	blk.Remove(mid)
	if len(blk.Instrs) != 2 || mid.Parent != nil {
		t.Error("Remove failed")
	}
	if blk.Terminator() != nil {
		t.Error("non-terminator tail should not be a terminator")
	}
}

func TestReplaceAllUsesAndHasUses(t *testing.T) {
	m, f := buildLoop(t)
	_ = m
	// Replace the +1.0 constant with +2.0 everywhere.
	var target *Instr
	for _, in := range f.FindBlock("body").Instrs {
		if in.Op == OpFAdd {
			target = in
		}
	}
	oldC := target.Args[1]
	newC := CF(FloatT(), 2)
	f.ReplaceAllUses(oldC, newC)
	if f.HasUses(oldC) {
		t.Error("old constant still used")
	}
	if target.Args[1] != newC {
		t.Error("replacement did not land")
	}
}

func TestSuccsAndFindBlock(t *testing.T) {
	_, f := buildLoop(t)
	header := f.FindBlock("header")
	succs := header.Succs()
	if len(succs) != 2 {
		t.Fatalf("header should have 2 successors, got %d", len(succs))
	}
	if f.FindBlock("nonexistent") != nil {
		t.Error("FindBlock should return nil for unknown block")
	}
	if f.Entry().Name != "entry" {
		t.Error("Entry() wrong")
	}
}

func TestBuilderNames(t *testing.T) {
	f := NewFunction("f", Void())
	blk := f.AddBlock("entry")
	b := NewBuilder(f)
	b.SetBlock(blk)
	x := b.Add(CI(I32(), 1), CI(I32(), 2))
	y := b.Add(x, x)
	if x.Name == y.Name || x.Name == "" {
		t.Errorf("builder names must be unique and non-empty: %q %q", x.Name, y.Name)
	}
	st := b.Store(x, &Undef{Ty: Ptr(I32())})
	if st.HasResult() {
		t.Error("store must not have a result")
	}
}

func TestGEPResultElem(t *testing.T) {
	arr := ArrayOf(4, ArrayOf(8, FloatT()))
	f := NewFunction("f", Void(), &Param{Name: "p", Ty: Ptr(arr)})
	blk := f.AddBlock("entry")
	b := NewBuilder(f)
	b.SetBlock(blk)
	g := b.GEP(arr, f.Params[0], CI(I64(), 0), CI(I64(), 1), CI(I64(), 2))
	if !g.Ty.IsPtr() || g.Ty.Elem.Kind != KindFloat {
		t.Errorf("3-index gep through [4 x [8 x float]] should yield float*, got %s",
			g.Ty.TypedString())
	}
}

// TestReplaceUses covers the one-sweep replacement routine: chains resolve
// to their end (through instructions as well as parameters), an entry
// mapping a value to itself changes nothing, entries reach instructions
// created after they were recorded, and sequential single-value
// replacements keep their step-by-step result (a three-step swap), which
// one chained map would not.
func TestReplaceUses(t *testing.T) {
	const a, b, c, tmp, in = 0, 1, 2, 3, 4
	cases := []struct {
		name  string
		steps [][][2]int // each step is one ReplaceUses call over {old, new} pairs
		users [][]int    // operands of the instructions built after the steps are recorded
		want  [][]int
	}{
		{"chain", [][][2]int{{{a, b}, {b, c}}}, [][]int{{a, b}, {c, a}}, [][]int{{c, c}, {c, c}}},
		{"chain-through-instr", [][][2]int{{{a, in}, {in, c}}}, [][]int{{a, in}}, [][]int{{c, c}}},
		{"self", [][][2]int{{{a, a}}}, [][]int{{a, b}}, [][]int{{a, b}}},
		{"self-then-chain", [][][2]int{{{a, a}, {b, a}}}, [][]int{{b, c}}, [][]int{{a, c}}},
		{"later-instr", [][][2]int{{{a, b}}}, [][]int{{a, a}, {c, b}}, [][]int{{b, b}, {c, b}}},
		{"swap", [][][2]int{{{a, tmp}}, {{b, a}}, {{tmp, b}}}, [][]int{{a, b}, {b, c}}, [][]int{{b, a}, {a, c}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFunction("f", Void())
			var vals []Value
			for _, n := range []string{"a", "b", "c", "tmp"} {
				p := &Param{Name: n, Ty: I64()}
				f.Params = append(f.Params, p)
				vals = append(vals, p)
			}
			entry := f.AddBlock("entry")
			def := entry.Append(&Instr{Op: OpAdd, Name: "in", Ty: I64(), Args: []Value{CI(I64(), 1), CI(I64(), 2)}})
			vals = append(vals, def)
			steps := make([]Replacements, len(tc.steps))
			for i, pairs := range tc.steps {
				steps[i] = Replacements{}
				for _, p := range pairs {
					steps[i][vals[p[0]]] = vals[p[1]]
				}
			}
			var users []*Instr
			for i, ops := range tc.users {
				var args []Value
				for _, o := range ops {
					args = append(args, vals[o])
				}
				users = append(users, entry.Append(&Instr{Op: OpAdd, Name: "u" + string(rune('0'+i)), Ty: I64(), Args: args}))
			}
			for _, r := range steps {
				f.ReplaceUses(r)
			}
			for i, u := range users {
				for j, v := range u.Args {
					if want := vals[tc.want[i][j]]; v != want {
						t.Errorf("instr %d operand %d = %s, want %s", i, j, v.Ident(), want.Ident())
					}
				}
			}
		})
	}
}

func TestResolveRejectsCycles(t *testing.T) {
	x, y := &Param{Name: "x", Ty: I64()}, &Param{Name: "y", Ty: I64()}
	defer func() {
		if recover() == nil {
			t.Fatal("a two-value cycle resolved without a panic")
		}
	}()
	Replacements{x: y, y: x}.Resolve(x)
}
