package passes

import (
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// DCE removes side-effect-free instructions without uses, iterating to a
// fixpoint.
func DCE(f *llvm.Function) {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	used := make(map[*llvm.Instr]bool, n)
	for changed := true; changed; {
		changed = false
		clear(used)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if d, ok := a.(*llvm.Instr); ok {
						used[d] = true
					}
				}
			}
		}
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if used[in] || !isPure(in) {
					kept = append(kept, in)
					continue
				}
				in.Parent = nil
				changed = true
			}
			clear(b.Instrs[len(kept):])
			b.Instrs = kept
		}
	}
}

func isPure(in *llvm.Instr) bool {
	switch in.Op {
	case llvm.OpStore, llvm.OpBr, llvm.OpCondBr, llvm.OpRet, llvm.OpCall,
		llvm.OpUnreachable:
		return false
	}
	return true
}

// SimplifyCFG removes unreachable blocks, merges straight-line block pairs,
// and folds branches on constant conditions.
func SimplifyCFG(f *llvm.Function) {
	for changed := true; changed; {
		changed = false

		// Fold constant conditional branches.
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != llvm.OpCondBr {
				continue
			}
			c, ok := t.Args[0].(*llvm.ConstInt)
			if !ok {
				continue
			}
			dest := t.Blocks[0]
			dead := t.Blocks[1]
			if c.Val == 0 {
				dest, dead = dead, dest
			}
			removePhiIncoming(dead, b)
			b.Remove(t)
			br := &llvm.Instr{Op: llvm.OpBr, Blocks: []*llvm.Block{dest}, Loop: t.Loop}
			b.Append(br)
			changed = true
		}

		// Drop unreachable blocks.
		cfg := analysis.NewCFG(f)
		var live []*llvm.Block
		for _, b := range f.Blocks {
			if cfg.Reachable(b) {
				live = append(live, b)
				continue
			}
			for _, s := range b.Succs() {
				removePhiIncoming(s, b)
			}
			changed = true
		}
		f.Blocks = live

		// Merge b -> s when b's only successor is s and s's only
		// predecessor is b.
		cfg = analysis.NewCFG(f)
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != llvm.OpBr {
				continue
			}
			s := t.Blocks[0]
			if s == b || len(cfg.Preds(s)) != 1 || s == f.Entry() {
				continue
			}
			// Phis in s with one predecessor are trivial; inline them.
			for len(s.Instrs) > 0 && s.Instrs[0].Op == llvm.OpPhi {
				phi := s.Instrs[0]
				f.ReplaceAllUses(phi, phi.Args[0])
				s.Remove(phi)
			}
			// Keep loop metadata on the merged terminator.
			loopMD := t.Loop
			b.Remove(t)
			for _, in := range s.Instrs {
				in.Parent = b
				b.Instrs = append(b.Instrs, in)
			}
			if loopMD != nil {
				if nt := b.Terminator(); nt != nil && nt.Loop == nil {
					nt.Loop = loopMD
				}
			}
			// Phis elsewhere referencing s as an incoming block now come
			// from b.
			for _, ob := range f.Blocks {
				for _, in := range ob.Instrs {
					if in.Op != llvm.OpPhi {
						continue
					}
					for i, blk := range in.Blocks {
						if blk == s {
							in.Blocks[i] = b
						}
					}
				}
			}
			// Delete s.
			var rest []*llvm.Block
			for _, x := range f.Blocks {
				if x != s {
					rest = append(rest, x)
				}
			}
			f.Blocks = rest
			changed = true
			break // CFG changed; recompute
		}
	}
}

func removePhiIncoming(b *llvm.Block, pred *llvm.Block) {
	for _, in := range b.Instrs {
		if in.Op != llvm.OpPhi {
			continue
		}
		for i := 0; i < len(in.Blocks); i++ {
			if in.Blocks[i] == pred {
				in.Blocks = append(in.Blocks[:i], in.Blocks[i+1:]...)
				in.Args = append(in.Args[:i], in.Args[i+1:]...)
				i--
			}
		}
	}
}

// ConstFold folds instructions with constant operands, then cleans up.
// Each round records its folds and rewrites their uses in one sweep; an
// instruction's operands are resolved through the round's folds before it
// is inspected, so later folds see earlier ones as an immediate rewrite
// would show them.
func ConstFold(f *llvm.Function) {
	for changed := true; changed; {
		changed = false
		rep := llvm.Replacements{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				rep.ResolveArgs(in)
				if v, ok := foldInstr(in); ok {
					rep[in] = v
					changed = true
				}
			}
		}
		if changed {
			f.ReplaceUses(rep)
			DCE(f)
		}
	}
}

func foldInstr(in *llvm.Instr) (llvm.Value, bool) {
	ci := func(i int) (int64, bool) {
		c, ok := in.Args[i].(*llvm.ConstInt)
		if !ok {
			return 0, false
		}
		return c.Val, true
	}
	cf := func(i int) (float64, bool) {
		c, ok := in.Args[i].(*llvm.ConstFloat)
		if !ok {
			return 0, false
		}
		return c.Val, true
	}
	switch in.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul:
		l, ok1 := ci(0)
		r, ok2 := ci(1)
		if ok1 && ok2 {
			var v int64
			switch in.Op {
			case llvm.OpAdd:
				v = l + r
			case llvm.OpSub:
				v = l - r
			case llvm.OpMul:
				v = l * r
			}
			return llvm.CI(in.Ty, v), true
		}
		// Identities.
		if in.Op == llvm.OpAdd {
			if ok2 && r == 0 {
				return in.Args[0], true
			}
			if ok1 && l == 0 {
				return in.Args[1], true
			}
		}
		if in.Op == llvm.OpMul {
			if ok2 && r == 1 {
				return in.Args[0], true
			}
			if ok1 && l == 1 {
				return in.Args[1], true
			}
		}
	case llvm.OpFAdd, llvm.OpFSub, llvm.OpFMul:
		l, ok1 := cf(0)
		r, ok2 := cf(1)
		if ok1 && ok2 {
			var v float64
			switch in.Op {
			case llvm.OpFAdd:
				v = l + r
			case llvm.OpFSub:
				v = l - r
			case llvm.OpFMul:
				v = l * r
			}
			return llvm.CF(in.Ty, v), true
		}
	case llvm.OpSExt, llvm.OpZExt, llvm.OpTrunc:
		if v, ok := ci(0); ok {
			return llvm.CI(in.Ty, v), true
		}
	case llvm.OpSIToFP:
		if v, ok := ci(0); ok {
			return llvm.CF(in.Ty, float64(v)), true
		}
	case llvm.OpICmp:
		l, ok1 := ci(0)
		r, ok2 := ci(1)
		if ok1 && ok2 {
			res := int64(0)
			ok := false
			switch in.Pred {
			case "eq":
				res, ok = b2i(l == r), true
			case "ne":
				res, ok = b2i(l != r), true
			case "slt":
				res, ok = b2i(l < r), true
			case "sle":
				res, ok = b2i(l <= r), true
			case "sgt":
				res, ok = b2i(l > r), true
			case "sge":
				res, ok = b2i(l >= r), true
			}
			if ok {
				return llvm.CI(llvm.I1(), res), true
			}
		}
	}
	return nil, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CSE deduplicates pure instructions with identical opcode/operands within
// dominating scopes (a GVN-lite). Replaced instructions are recorded and
// their uses rewritten in one sweep at the end; each instruction's operands
// are resolved through the pending replacements before its key is taken,
// so keys see what an immediate rewrite would have left.
func CSE(f *llvm.Function) {
	cfg := analysis.NewCFG(f)
	dt := analysis.NewDomTree(cfg)
	type key struct {
		op   llvm.Opcode
		pred string
		a0   llvm.Value
		a1   llvm.Value
		a2   llvm.Value
	}
	eligible := func(in *llvm.Instr) bool {
		return isPure(in) && in.Op != llvm.OpPhi && in.Op != llvm.OpAlloca &&
			in.Op != llvm.OpLoad && len(in.Args) <= 3
	}
	n := 0
	for _, b := range cfg.Order {
		for _, in := range b.Instrs {
			if eligible(in) {
				n++
			}
		}
	}
	avail := make(map[key][]*llvm.Instr, n)
	// Constants are not interned in the IR; canonicalize them so equal
	// literals compare equal in keys. Scalar types are interned, so their
	// pointer names them; any other type is named by its spelling.
	type constKey struct {
		ty   *llvm.Type
		name string
		i    int64
		f    float64
	}
	typeKey := func(t *llvm.Type) constKey {
		switch t.Kind {
		case llvm.KindInt, llvm.KindFloat, llvm.KindDouble:
			return constKey{ty: t}
		}
		return constKey{name: t.String()}
	}
	canonConsts := map[constKey]llvm.Value{}
	canon := func(v llvm.Value) llvm.Value {
		var k constKey
		switch c := v.(type) {
		case *llvm.ConstInt:
			k = typeKey(c.Ty)
			k.i = c.Val
		case *llvm.ConstFloat:
			k = typeKey(c.Ty)
			k.f = c.Val
		default:
			return v
		}
		if prev, ok := canonConsts[k]; ok {
			return prev
		}
		canonConsts[k] = v
		return v
	}
	mk := func(in *llvm.Instr) (key, bool) {
		if !eligible(in) {
			return key{}, false
		}
		k := key{op: in.Op, pred: in.Pred}
		if len(in.Args) > 0 {
			k.a0 = canon(in.Args[0])
		}
		if len(in.Args) > 1 {
			k.a1 = canon(in.Args[1])
		}
		if len(in.Args) > 2 {
			k.a2 = canon(in.Args[2])
		}
		return k, true
	}
	rep := llvm.Replacements{}
	for _, b := range cfg.Order {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			rep.ResolveArgs(in)
			if k, ok := mk(in); ok {
				if prev := dominatingEqual(avail[k], in, b, dt); prev != nil {
					rep[in] = prev
					in.Parent = nil
					continue
				}
				avail[k] = append(avail[k], in)
			}
			kept = append(kept, in)
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	f.ReplaceUses(rep)
}

// dominatingEqual returns the first candidate whose block dominates b and
// whose element and result types match in's, or nil.
func dominatingEqual(cands []*llvm.Instr, in *llvm.Instr, b *llvm.Block, dt *analysis.DomTree) *llvm.Instr {
	for _, prev := range cands {
		if prev.Parent != nil && dt.Dominates(prev.Parent, b) &&
			prev.SrcElem.Equal(in.SrcElem) && typesEqual(prev.Ty, in.Ty) {
			return prev
		}
	}
	return nil
}

func typesEqual(a, b *llvm.Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}

// StrengthReduce rewrites integer multiplies by power-of-two constants into
// shifts — address arithmetic over power-of-two array extents then costs a
// wire instead of a multiplier.
func StrengthReduce(f *llvm.Function) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != llvm.OpMul || !in.Ty.IsInt() {
				continue
			}
			for i := 0; i < 2; i++ {
				c, ok := in.Args[i].(*llvm.ConstInt)
				if !ok || c.Val <= 0 || c.Val&(c.Val-1) != 0 {
					continue
				}
				shift := int64(0)
				for v := c.Val; v > 1; v >>= 1 {
					shift++
				}
				other := in.Args[1-i]
				in.Op = llvm.OpShl
				in.Args = []llvm.Value{other, llvm.CI(in.Ty, shift)}
				break
			}
		}
	}
}

// Cleanup runs the standard post-frontend pipeline.
func Cleanup(f *llvm.Function) {
	Mem2Reg(f)
	SimplifyCFG(f)
	ConstFold(f)
	StrengthReduce(f)
	CSE(f)
	DCE(f)
	SimplifyCFG(f)
}
