// Package analysis provides CFG utilities over the llvm package: predecessor
// maps, reverse postorder, dominator trees, natural-loop detection, and a
// minimal induction-variable scalar evolution, as required by mem2reg, the
// adaptor, and the HLS scheduler.
package analysis

import (
	"slices"

	"repro/internal/llvm"
)

// CFG caches predecessor/successor relations of a function. Blocks are
// numbered as llvm.NewBlockIndex numbers them, and the per-block
// tables are slices over those numbers.
type CFG struct {
	F     *llvm.Function
	Order []*llvm.Block // reverse postorder from entry
	idx   llvm.BlockIndex
	rpo   []int // index into Order by block number, -1 when unreachable
}

// NewCFG computes the CFG for f.
func NewCFG(f *llvm.Function) *CFG {
	c := &CFG{F: f, idx: llvm.NewBlockIndex(f)}
	n := c.idx.Len()
	c.rpo = make([]int, n)
	for i := range c.rpo {
		c.rpo[i] = -1
	}
	// Postorder via iterative DFS, marking visited blocks in rpo; the
	// marks become reverse-postorder indices below.
	post := make([]*llvm.Block, 0, n)
	type frame struct {
		b *llvm.Block
		i int
	}
	if e := f.Entry(); e != nil {
		stack := make([]frame, 1, n)
		stack[0] = frame{e, 0}
		c.rpo[c.idx.Num[e]] = 0
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			succs := top.b.Succs()
			if top.i < len(succs) {
				s := succs[top.i]
				top.i++
				if i := c.idx.Num[s]; c.rpo[i] < 0 {
					c.rpo[i] = 0
					stack = append(stack, frame{s, 0})
				}
				continue
			}
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
		}
	}
	slices.Reverse(post)
	c.Order = post
	for i, b := range post {
		c.rpo[c.idx.Num[b]] = i
	}
	return c
}

// Preds returns b's predecessors, in block and successor order.
func (c *CFG) Preds(b *llvm.Block) []*llvm.Block {
	if i, ok := c.idx.Num[b]; ok {
		return c.idx.Preds(i)
	}
	return nil
}

// index returns b's position in Order, or -1 when b is unreachable.
func (c *CFG) index(b *llvm.Block) int {
	if i, ok := c.idx.Num[b]; ok {
		return c.rpo[i]
	}
	return -1
}

// Reachable reports whether b is reachable from entry.
func (c *CFG) Reachable(b *llvm.Block) bool { return c.index(b) >= 0 }

// DomTree is a dominator tree (Cooper-Harvey-Kennedy) over the CFG's
// reverse postorder.
type DomTree struct {
	cfg  *CFG
	idom []int // immediate dominator's Order index by Order index, -1 = none
}

// NewDomTree computes the dominator tree for f's CFG.
func NewDomTree(c *CFG) *DomTree {
	d := &DomTree{cfg: c, idom: make([]int, len(c.Order))}
	if len(c.Order) == 0 {
		return d
	}
	for i := range d.idom {
		d.idom[i] = -1
	}
	d.idom[0] = 0
	changed := true
	for changed {
		changed = false
		for bi, b := range c.Order[1:] {
			bi++
			newIdom := -1
			for _, p := range c.Preds(b) {
				pi := c.index(p)
				if pi < 0 || d.idom[pi] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = pi
					continue
				}
				newIdom = d.intersect(pi, newIdom)
			}
			if newIdom >= 0 && d.idom[bi] != newIdom {
				d.idom[bi] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for a > b {
			a = d.idom[a]
		}
		for b > a {
			b = d.idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator (entry's idom is itself).
func (d *DomTree) IDom(b *llvm.Block) *llvm.Block {
	if i := d.cfg.index(b); i >= 0 && d.idom[i] >= 0 {
		return d.cfg.Order[d.idom[i]]
	}
	return nil
}

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b *llvm.Block) bool {
	if a == b {
		return true
	}
	ai, bi := d.cfg.index(a), d.cfg.index(b)
	if ai < 0 || bi < 0 {
		return false
	}
	for ai != bi {
		i := d.idom[bi]
		if i < 0 || i == bi {
			return false
		}
		bi = i
	}
	return true
}

// Loop is a natural loop.
type Loop struct {
	Header *llvm.Block
	// Latch is the unique back-edge source, or nil when the header has
	// several back edges (consult Latches in that case).
	Latch *llvm.Block
	// Latches lists every back-edge source, in reverse postorder.
	Latches []*llvm.Block
	Blocks  map[*llvm.Block]bool
	Parent  *Loop
	// Children are loops nested directly inside this one.
	Children []*Loop
	// MD is the loop metadata found on the latch terminators. When several
	// latches carry distinct metadata the loop's intent is ambiguous and MD
	// is nil (the hls-directives lint diagnoses this).
	MD *llvm.LoopMD
}

// Depth returns the nesting depth (outermost = 1).
func (l *Loop) Depth() int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *llvm.Block) bool { return l.Blocks[b] }

// IsInnermost reports whether the loop has no children.
func (l *Loop) IsInnermost() bool { return len(l.Children) == 0 }

// LoopInfo is the set of natural loops of a function.
type LoopInfo struct {
	Loops []*Loop // all loops, outer before inner
	// ByHeader maps header blocks to their loop.
	ByHeader map[*llvm.Block]*Loop
}

// FindLoops detects natural loops via back edges (latch -> header where
// header dominates latch) and nests them by block containment.
func FindLoops(c *CFG, d *DomTree) *LoopInfo {
	li := &LoopInfo{ByHeader: map[*llvm.Block]*Loop{}}
	for _, b := range c.Order {
		for _, s := range b.Succs() {
			if d.Dominates(s, b) {
				// back edge b -> s
				l := li.ByHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*llvm.Block]bool{s: true}}
					li.ByHeader[s] = l
					li.Loops = append(li.Loops, l)
				}
				l.Latches = append(l.Latches, b)
				// Collect body: reverse reachability from latch to header.
				var stack []*llvm.Block
				if !l.Blocks[b] {
					l.Blocks[b] = true
					stack = append(stack, b)
				}
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, p := range c.Preds(x) {
						if !l.Blocks[p] {
							l.Blocks[p] = true
							stack = append(stack, p)
						}
					}
				}
			}
		}
	}
	// Finalize latch/metadata views. A unique latch is exposed as Latch; a
	// multi-latch loop keeps Latch nil so callers cannot silently act on an
	// arbitrary back edge. Metadata survives only when exactly one latch
	// terminator carries it (several identical-intent latches would need a
	// merge policy; the lint layer flags them instead).
	for _, l := range li.Loops {
		if len(l.Latches) == 1 {
			l.Latch = l.Latches[0]
		}
		var md *llvm.LoopMD
		ambiguous := false
		for _, latch := range l.Latches {
			if t := latch.Terminator(); t != nil && t.Loop != nil {
				if md != nil && md != t.Loop {
					ambiguous = true
				}
				md = t.Loop
			}
		}
		if !ambiguous {
			l.MD = md
		}
	}
	// Establish nesting: loop A is a child of the smallest loop strictly
	// containing its header.
	for _, l := range li.Loops {
		var best *Loop
		for _, o := range li.Loops {
			if o == l || !o.Blocks[l.Header] {
				continue
			}
			if best == nil || len(o.Blocks) < len(best.Blocks) {
				best = o
			}
		}
		if best != nil {
			l.Parent = best
			best.Children = append(best.Children, l)
		}
	}
	// Order outer loops before inner (stable by depth).
	ordered := make([]*Loop, 0, len(li.Loops))
	var emit func(ls []*Loop)
	emit = func(ls []*Loop) {
		for _, l := range ls {
			ordered = append(ordered, l)
			emit(l.Children)
		}
	}
	var tops []*Loop
	for _, l := range li.Loops {
		if l.Parent == nil {
			tops = append(tops, l)
		}
	}
	emit(tops)
	li.Loops = ordered
	return li
}

// NestOf returns the loops enclosing b, outermost first (empty when b is not
// inside any loop).
func (li *LoopInfo) NestOf(b *llvm.Block) []*Loop {
	var innermost *Loop
	for _, l := range li.Loops {
		if !l.Blocks[b] {
			continue
		}
		if innermost == nil || len(l.Blocks) < len(innermost.Blocks) {
			innermost = l
		}
	}
	if innermost == nil {
		return nil
	}
	var nest []*Loop
	for l := innermost; l != nil; l = l.Parent {
		nest = append(nest, l)
	}
	for i, j := 0, len(nest)-1; i < j; i, j = i+1, j-1 {
		nest[i], nest[j] = nest[j], nest[i]
	}
	return nest
}

// IndVar describes a loop's canonical induction variable: an integer phi in
// the header starting at Start, stepping by Step each iteration, and guarded
// by `icmp Pred iv, Bound` on the header's conditional branch.
type IndVar struct {
	Phi   *llvm.Instr
	Start int64
	Step  int64 // nonzero; negative for down-counting loops
	Bound int64
	Pred  string // slt, sle, ult, ule (Step > 0) or sgt, sge (Step < 0)
}

// Trip returns the number of iterations the guard admits (0 when the bound
// excludes even the start value).
func (iv IndVar) Trip() int64 {
	switch iv.Pred {
	case "slt", "ult":
		if iv.Bound <= iv.Start {
			return 0
		}
		return (iv.Bound - iv.Start + iv.Step - 1) / iv.Step
	case "sle", "ule":
		if iv.Bound < iv.Start {
			return 0
		}
		return (iv.Bound-iv.Start)/iv.Step + 1
	case "sgt":
		if iv.Start <= iv.Bound {
			return 0
		}
		return (iv.Start - iv.Bound + (-iv.Step) - 1) / (-iv.Step)
	case "sge":
		if iv.Start < iv.Bound {
			return 0
		}
		return (iv.Start-iv.Bound)/(-iv.Step) + 1
	}
	return 0
}

// Last returns the final value the induction variable takes inside the loop
// body: the largest for positive steps, the smallest for negative ones. Only
// meaningful when Trip() >= 1.
func (iv IndVar) Last() int64 {
	return iv.Start + (iv.Trip()-1)*iv.Step
}

// InductionVar recognizes the canonical phi/icmp/add induction variable of
// a loop, with ok=false when the shape is not recognized.
//
// Recognized shape (as produced by both flows; instcombine-lite may rewrite
// the exit compare to sle, and unsigned forms appear after retyping):
//
//	header: %iv = phi [ C0, pre ], [ %next, latch ]
//	        %c = icmp {slt|sle|ult|ule|sgt|sge} %iv, C1
//	        br %c, body, exit
//	...     %next = add %iv, C2
//
// The signed greater-than forms are the down-counting loops (C2 < 0); the
// less-than forms require C2 > 0.
func InductionVar(l *Loop) (IndVar, bool) {
	var cmp *llvm.Instr
	for _, in := range l.Header.Instrs {
		if in.Op == llvm.OpICmp {
			cmp = in
		}
	}
	term := l.Header.Terminator()
	if cmp == nil || term == nil || term.Op != llvm.OpCondBr || term.Args[0] != cmp {
		return IndVar{}, false
	}
	// The induction phi is the compare's left operand.
	phi, ok := cmp.Args[0].(*llvm.Instr)
	if !ok || phi.Op != llvm.OpPhi || phi.Parent != l.Header || !phi.Ty.IsInt() {
		return IndVar{}, false
	}
	switch cmp.Pred {
	case "slt", "sle", "ult", "ule", "sgt", "sge":
	default:
		return IndVar{}, false
	}
	bound, ok := cmp.Args[1].(*llvm.ConstInt)
	if !ok {
		return IndVar{}, false
	}
	var start *llvm.ConstInt
	var step *llvm.ConstInt
	for i, inc := range phi.Args {
		if l.Blocks[phi.Blocks[i]] && phi.Blocks[i] != l.Header {
			// Back-edge value: expect add(iv, step).
			add, ok := inc.(*llvm.Instr)
			if !ok || add.Op != llvm.OpAdd {
				return IndVar{}, false
			}
			if add.Args[0] == phi {
				step, _ = add.Args[1].(*llvm.ConstInt)
			} else if add.Args[1] == phi {
				step, _ = add.Args[0].(*llvm.ConstInt)
			}
		} else {
			start, _ = inc.(*llvm.ConstInt)
		}
	}
	if start == nil || step == nil || step.Val == 0 {
		return IndVar{}, false
	}
	down := cmp.Pred == "sgt" || cmp.Pred == "sge"
	if down != (step.Val < 0) {
		// An up-counting guard over a negative step (or vice versa) is not a
		// counted loop: it exits immediately or never via the guard.
		return IndVar{}, false
	}
	if (cmp.Pred == "ult" || cmp.Pred == "ule") && (start.Val < 0 || bound.Val < 0) {
		// Unsigned compares over negative constants would need modular
		// reasoning; bail out rather than report a wrong count.
		return IndVar{}, false
	}
	return IndVar{Phi: phi, Start: start.Val, Step: step.Val, Bound: bound.Val, Pred: cmp.Pred}, true
}

// TripCount returns the constant trip count of a loop in canonical
// phi/icmp/add form, with ok=false when the shape is not recognized.
func TripCount(l *Loop) (int64, bool) {
	iv, ok := InductionVar(l)
	if !ok {
		return 0, false
	}
	return iv.Trip(), true
}
