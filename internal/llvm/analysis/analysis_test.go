package analysis

import (
	"testing"

	"repro/internal/llvm"
)

// buildNestedLoops builds:
//
//	entry -> oh -> ob -> ih -> ib -> ih(latch) ; ih->oe ; oe -> oh(latch) ; oh -> exit
//
// a 2-deep nest with canonical phi/icmp/add shape (outer trip 4, inner 8).
func buildNestedLoops(t *testing.T) (*llvm.Function, map[string]*llvm.Block) {
	t.Helper()
	f := llvm.NewFunction("nest", llvm.Void())
	blocks := map[string]*llvm.Block{}
	for _, n := range []string{"entry", "oh", "ob", "ih", "ib", "oe", "exit"} {
		blocks[n] = f.AddBlock(n)
	}
	b := llvm.NewBuilder(f)

	b.SetBlock(blocks["entry"])
	b.Br(blocks["oh"])

	b.SetBlock(blocks["oh"])
	oiv := b.Phi(llvm.I64())
	ocond := b.ICmp("slt", oiv, llvm.CI(llvm.I64(), 4))
	b.CondBr(ocond, blocks["ob"], blocks["exit"])

	b.SetBlock(blocks["ob"])
	b.Br(blocks["ih"])

	b.SetBlock(blocks["ih"])
	iiv := b.Phi(llvm.I64())
	icond := b.ICmp("slt", iiv, llvm.CI(llvm.I64(), 8))
	b.CondBr(icond, blocks["ib"], blocks["oe"])

	b.SetBlock(blocks["ib"])
	inext := b.Add(iiv, llvm.CI(llvm.I64(), 1))
	innerLatch := b.Br(blocks["ih"])
	innerLatch.Loop = &llvm.LoopMD{Pipeline: true, II: 2}

	b.SetBlock(blocks["oe"])
	onext := b.Add(oiv, llvm.CI(llvm.I64(), 1))
	b.Br(blocks["oh"])

	b.SetBlock(blocks["exit"])
	b.Ret(nil)

	oiv.AddIncoming(llvm.CI(llvm.I64(), 0), blocks["entry"])
	oiv.AddIncoming(onext, blocks["oe"])
	iiv.AddIncoming(llvm.CI(llvm.I64(), 0), blocks["ob"])
	iiv.AddIncoming(inext, blocks["ib"])

	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return f, blocks
}

func TestCFGOrderAndPreds(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	if len(cfg.Order) != 7 {
		t.Fatalf("RPO should cover 7 blocks, got %d", len(cfg.Order))
	}
	if cfg.Order[0] != blocks["entry"] {
		t.Error("RPO must start at entry")
	}
	if got := len(cfg.Preds(blocks["oh"])); got != 2 {
		t.Errorf("outer header should have 2 preds, got %d", got)
	}
	if got := len(cfg.Preds(blocks["ih"])); got != 2 {
		t.Errorf("inner header should have 2 preds, got %d", got)
	}
	if !cfg.Reachable(blocks["exit"]) {
		t.Error("exit must be reachable")
	}
}

func TestCFGUnreachableBlock(t *testing.T) {
	f, _ := buildNestedLoops(t)
	orphan := f.AddBlock("orphan")
	orphan.Append(&llvm.Instr{Op: llvm.OpRet})
	cfg := NewCFG(f)
	if cfg.Reachable(orphan) {
		t.Error("orphan block should be unreachable")
	}
}

func TestDominators(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	cases := []struct {
		a, b string
		want bool
	}{
		{"entry", "exit", true},
		{"oh", "ih", true},
		{"oh", "exit", true},
		{"ih", "ib", true},
		{"ib", "oe", false},
		{"oe", "oh", false}, // back edge source does not dominate header
		{"ih", "ih", true},  // reflexive
	}
	for _, c := range cases {
		if got := dt.Dominates(blocks[c.a], blocks[c.b]); got != c.want {
			t.Errorf("Dominates(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if dt.IDom(blocks["ih"]) != blocks["ob"] {
		t.Errorf("idom(ih) = %v", dt.IDom(blocks["ih"]).Name)
	}
}

func TestLoopDetection(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	if len(li.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(li.Loops))
	}
	outer := li.ByHeader[blocks["oh"]]
	inner := li.ByHeader[blocks["ih"]]
	if outer == nil || inner == nil {
		t.Fatal("loops not keyed by header")
	}
	if inner.Parent != outer {
		t.Error("inner loop must nest inside outer")
	}
	if outer.Depth() != 1 || inner.Depth() != 2 {
		t.Errorf("depths: outer=%d inner=%d", outer.Depth(), inner.Depth())
	}
	if !inner.IsInnermost() || outer.IsInnermost() {
		t.Error("innermost classification wrong")
	}
	if !outer.Contains(blocks["ib"]) {
		t.Error("outer loop must contain the inner body")
	}
	if inner.Contains(blocks["oe"]) {
		t.Error("inner loop must not contain the outer latch")
	}
	// Loop metadata from the latch.
	if inner.MD == nil || !inner.MD.Pipeline || inner.MD.II != 2 {
		t.Errorf("inner loop metadata lost: %+v", inner.MD)
	}
	// Ordering: outer before inner.
	if li.Loops[0] != outer || li.Loops[1] != inner {
		t.Error("loops must be ordered outer-first")
	}
}

func TestTripCount(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	if tc, ok := TripCount(li.ByHeader[blocks["oh"]]); !ok || tc != 4 {
		t.Errorf("outer trip = %d ok=%v, want 4", tc, ok)
	}
	if tc, ok := TripCount(li.ByHeader[blocks["ih"]]); !ok || tc != 8 {
		t.Errorf("inner trip = %d ok=%v, want 8", tc, ok)
	}
}

func TestTripCountNonCanonical(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	// Make the inner bound non-constant: compare against the outer IV.
	ih := blocks["ih"]
	var cmp *llvm.Instr
	for _, in := range ih.Instrs {
		if in.Op == llvm.OpICmp {
			cmp = in
		}
	}
	cmp.Args[1] = blocks["oh"].Instrs[0] // outer phi
	if _, ok := TripCount(li.ByHeader[ih]); ok {
		t.Error("variable-bound loop should not report a constant trip count")
	}
}

// buildTwoLatchLoop builds a loop whose header has two back edges:
//
//	entry -> h ; h -> body|exit ; body -> l1|l2 ; l1 -> h ; l2 -> h
func buildTwoLatchLoop(t *testing.T) (*llvm.Function, map[string]*llvm.Block) {
	t.Helper()
	f := llvm.NewFunction("twolatch", llvm.Void())
	blocks := map[string]*llvm.Block{}
	for _, n := range []string{"entry", "h", "body", "l1", "l2", "exit"} {
		blocks[n] = f.AddBlock(n)
	}
	b := llvm.NewBuilder(f)

	b.SetBlock(blocks["entry"])
	b.Br(blocks["h"])

	b.SetBlock(blocks["h"])
	iv := b.Phi(llvm.I64())
	cond := b.ICmp("slt", iv, llvm.CI(llvm.I64(), 10))
	b.CondBr(cond, blocks["body"], blocks["exit"])

	b.SetBlock(blocks["body"])
	next := b.Add(iv, llvm.CI(llvm.I64(), 1))
	parity := b.ICmp("slt", next, llvm.CI(llvm.I64(), 5))
	b.CondBr(parity, blocks["l1"], blocks["l2"])

	b.SetBlock(blocks["l1"])
	t1 := b.Br(blocks["h"])
	t1.Loop = &llvm.LoopMD{Pipeline: true, II: 1}

	b.SetBlock(blocks["l2"])
	t2 := b.Br(blocks["h"])
	t2.Loop = &llvm.LoopMD{Unroll: 2}

	b.SetBlock(blocks["exit"])
	b.Ret(nil)

	iv.AddIncoming(llvm.CI(llvm.I64(), 0), blocks["entry"])
	iv.AddIncoming(next, blocks["l1"])
	iv.AddIncoming(next, blocks["l2"])

	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return f, blocks
}

func TestFindLoopsMultiLatch(t *testing.T) {
	f, blocks := buildTwoLatchLoop(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	if len(li.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(li.Loops))
	}
	l := li.ByHeader[blocks["h"]]
	if l == nil {
		t.Fatal("loop not keyed by header")
	}
	if len(l.Latches) != 2 {
		t.Fatalf("want 2 latches, got %d", len(l.Latches))
	}
	seen := map[*llvm.Block]bool{l.Latches[0]: true, l.Latches[1]: true}
	if !seen[blocks["l1"]] || !seen[blocks["l2"]] {
		t.Errorf("latches = %v, want l1 and l2", []string{l.Latches[0].Name, l.Latches[1].Name})
	}
	if l.Latch != nil {
		t.Errorf("multi-latch loop must expose Latch=nil, got %s", l.Latch.Name)
	}
	if l.MD != nil {
		t.Errorf("conflicting latch metadata must yield MD=nil, got %+v", l.MD)
	}
	if !l.Contains(blocks["l1"]) || !l.Contains(blocks["l2"]) || !l.Contains(blocks["body"]) {
		t.Error("loop body must include both latches and the branch block")
	}
}

func TestFindLoopsSingleLatchStillExposed(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	inner := li.ByHeader[blocks["ih"]]
	if inner.Latch != blocks["ib"] {
		t.Errorf("single-latch loop must keep Latch, got %v", inner.Latch)
	}
	if len(inner.Latches) != 1 || inner.Latches[0] != blocks["ib"] {
		t.Errorf("Latches must mirror the unique latch, got %v", inner.Latches)
	}
}

// buildCountedLoop builds a single canonical loop with the given compare
// predicate, start, step, and bound constants.
func buildCountedLoop(t *testing.T, pred string, start, step, bound int64) (*llvm.Function, *Loop) {
	t.Helper()
	f := llvm.NewFunction("counted", llvm.Void())
	entry := f.AddBlock("entry")
	h := f.AddBlock("h")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	b := llvm.NewBuilder(f)

	b.SetBlock(entry)
	b.Br(h)

	b.SetBlock(h)
	iv := b.Phi(llvm.I64())
	cond := b.ICmp(pred, iv, llvm.CI(llvm.I64(), bound))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	next := b.Add(iv, llvm.CI(llvm.I64(), step))
	b.Br(h)

	b.SetBlock(exit)
	b.Ret(nil)

	iv.AddIncoming(llvm.CI(llvm.I64(), start), entry)
	iv.AddIncoming(next, body)

	if err := f.Verify(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	cfg := NewCFG(f)
	li := FindLoops(cfg, NewDomTree(cfg))
	if len(li.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(li.Loops))
	}
	return f, li.Loops[0]
}

func TestTripCountPredicates(t *testing.T) {
	cases := []struct {
		pred               string
		start, step, bound int64
		want               int64
		ok                 bool
	}{
		{"slt", 0, 1, 8, 8, true},
		{"sle", 0, 1, 8, 9, true},
		{"ult", 0, 1, 8, 8, true},
		{"ule", 0, 1, 8, 9, true},
		{"slt", 2, 3, 11, 3, true},    // 2,5,8 < 11
		{"sle", 2, 3, 11, 4, true},    // 2,5,8,11 <= 11
		{"ult", 4, 2, 4, 0, true},     // bound == start: empty
		{"sle", 5, 1, 4, 0, true},     // bound < start: empty
		{"sgt", 8, 1, 0, 0, false},    // down-counting guard over an up-counting step
		{"slt", 0, -1, 8, 0, false},   // up-counting guard over a down-counting step
		{"ult", -1, 1, 8, 0, false},   // unsigned with negative start
		{"ule", 0, 1, -1, 0, false},   // unsigned with negative bound
		{"sgt", 8, -1, 0, 8, true},    // 8,7,...,1 > 0
		{"sge", 8, -1, 0, 9, true},    // 8,7,...,0 >= 0
		{"sgt", 11, -3, 2, 3, true},   // 11,8,5 > 2
		{"sge", 11, -3, 2, 4, true},   // 11,8,5,2 >= 2
		{"sgt", 0, -1, 8, 0, true},    // start below bound: empty
		{"sge", 3, -2, 4, 0, true},    // start below bound: empty
		{"sgt", -2, -4, -15, 4, true}, // -2,-6,-10,-14 > -15
	}
	for _, c := range cases {
		_, l := buildCountedLoop(t, c.pred, c.start, c.step, c.bound)
		got, ok := TripCount(l)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("TripCount(%s start=%d step=%d bound=%d) = %d,%v want %d,%v",
				c.pred, c.start, c.step, c.bound, got, ok, c.want, c.ok)
		}
	}
}

func TestInductionVarLast(t *testing.T) {
	_, l := buildCountedLoop(t, "slt", 0, 2, 9)
	iv, ok := InductionVar(l)
	if !ok {
		t.Fatal("canonical loop must be recognized")
	}
	if iv.Trip() != 5 { // 0,2,4,6,8
		t.Errorf("trip = %d, want 5", iv.Trip())
	}
	if iv.Last() != 8 {
		t.Errorf("last = %d, want 8", iv.Last())
	}
	if iv.Phi != l.Header.Instrs[0] {
		t.Error("IndVar.Phi must be the header phi")
	}
}

func TestInductionVarLastNegativeStep(t *testing.T) {
	_, l := buildCountedLoop(t, "sgt", 9, -2, 0)
	iv, ok := InductionVar(l)
	if !ok {
		t.Fatal("down-counting loop must be recognized")
	}
	if iv.Step != -2 || iv.Pred != "sgt" {
		t.Errorf("iv = %+v, want step -2 pred sgt", iv)
	}
	if iv.Trip() != 5 { // 9,7,5,3,1
		t.Errorf("trip = %d, want 5", iv.Trip())
	}
	if iv.Last() != 1 { // smallest value for a negative step
		t.Errorf("last = %d, want 1", iv.Last())
	}
}

func TestTripCountZero(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	dt := NewDomTree(cfg)
	li := FindLoops(cfg, dt)
	var cmp *llvm.Instr
	for _, in := range blocks["ih"].Instrs {
		if in.Op == llvm.OpICmp {
			cmp = in
		}
	}
	cmp.Args[1] = llvm.CI(llvm.I64(), 0) // bound below start
	if tc, ok := TripCount(li.ByHeader[blocks["ih"]]); !ok || tc != 0 {
		t.Errorf("empty loop trip = %d ok=%v, want 0", tc, ok)
	}
	_ = f
}

func TestNestOf(t *testing.T) {
	f, blocks := buildNestedLoops(t)
	cfg := NewCFG(f)
	li := FindLoops(cfg, NewDomTree(cfg))
	outer := li.ByHeader[blocks["oh"]]
	inner := li.ByHeader[blocks["ih"]]
	cases := []struct {
		block string
		want  []*Loop
	}{
		{"entry", nil},
		{"exit", nil},
		{"oh", []*Loop{outer}},
		{"oe", []*Loop{outer}},
		{"ih", []*Loop{outer, inner}},
		{"ib", []*Loop{outer, inner}},
	}
	for _, c := range cases {
		got := li.NestOf(blocks[c.block])
		if len(got) != len(c.want) {
			t.Errorf("NestOf(%s): got %d levels, want %d", c.block, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("NestOf(%s)[%d]: wrong loop (want outermost-first)", c.block, i)
			}
		}
	}
}
