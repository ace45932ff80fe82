// Package passes implements LLVM-level transformations: mem2reg (SSA
// promotion of scalar allocas), SimplifyCFG, dead-code elimination, constant
// folding, and a dominance-scoped CSE. The C-frontend path depends on
// mem2reg to recover SSA form; both flows use the cleanup passes so the
// backend sees comparable IR.
package passes

import (
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Mem2Reg promotes scalar allocas whose only uses are loads and stores into
// SSA values, inserting phis at joins (dense insertion + trivial-phi
// pruning).
func Mem2Reg(f *llvm.Function) {
	cfg := analysis.NewCFG(f)

	// Find promotable allocas.
	var allocas []*llvm.Instr
	promotable := map[*llvm.Instr]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpAlloca && !in.SrcElem.IsArray() && !in.SrcElem.IsStruct() {
				allocas = append(allocas, in)
				promotable[in] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				al, ok := a.(*llvm.Instr)
				if !ok || al.Op != llvm.OpAlloca || !promotable[al] {
					continue
				}
				switch {
				case in.Op == llvm.OpLoad && ai == 0:
				case in.Op == llvm.OpStore && ai == 1:
				default:
					promotable[al] = false // address escapes
				}
			}
		}
	}
	var vars []*llvm.Instr
	for _, a := range allocas {
		if promotable[a] {
			vars = append(vars, a)
		}
	}
	if len(vars) == 0 {
		return
	}

	// Dense phi insertion: one phi per variable per multi-pred block.
	phiFor := map[*llvm.Block]map[*llvm.Instr]*llvm.Instr{}
	phiCtr := 0
	for _, b := range f.Blocks {
		if len(cfg.Preds(b)) < 2 && b != f.Entry() {
			continue
		}
		if len(cfg.Preds(b)) < 2 {
			continue
		}
		phiFor[b] = map[*llvm.Instr]*llvm.Instr{}
		for _, v := range vars {
			phi := &llvm.Instr{Op: llvm.OpPhi, Ty: v.SrcElem,
				Name: v.Name + "_p" + itoa(phiCtr)}
			phiCtr++
			phiFor[b][v] = phi
		}
	}

	// Rename pass over reverse postorder. Promoted loads are recorded as
	// replaced and rewritten in one sweep after the pass; each instruction's
	// operands are resolved through the pending replacements first.
	endVal := map[*llvm.Block]map[*llvm.Instr]llvm.Value{}
	rep := llvm.Replacements{}
	for _, b := range cfg.Order {
		cur := map[*llvm.Instr]llvm.Value{}
		if phis, ok := phiFor[b]; ok {
			for v, phi := range phis {
				cur[v] = phi
			}
		} else if len(cfg.Preds(b)) == 1 {
			// Single predecessor: inherit (preds appear before b in RPO for
			// reducible CFGs except back edges; back edges only target
			// multi-pred headers, which got phis).
			if pv, ok := endVal[cfg.Preds(b)[0]]; ok {
				for v, x := range pv {
					cur[v] = x
				}
			}
		}
		var toRemove []*llvm.Instr
		for _, in := range b.Instrs {
			rep.ResolveArgs(in)
			switch in.Op {
			case llvm.OpLoad:
				if al, ok := in.Args[0].(*llvm.Instr); ok && al.Op == llvm.OpAlloca && promotable[al] {
					repl := cur[al]
					if repl == nil {
						repl = &llvm.Undef{Ty: al.SrcElem}
					}
					rep[in] = repl
					toRemove = append(toRemove, in)
				}
			case llvm.OpStore:
				if al, ok := in.Args[1].(*llvm.Instr); ok && al.Op == llvm.OpAlloca && promotable[al] {
					cur[al] = in.Args[0]
					toRemove = append(toRemove, in)
				}
			}
		}
		for _, in := range toRemove {
			b.Remove(in)
		}
		endVal[b] = cur
	}
	f.ReplaceUses(rep)

	// Wire phi incomings and insert the phis.
	for b, phis := range phiFor {
		for v, phi := range phis {
			for _, p := range cfg.Preds(b) {
				inc := endVal[p][v]
				if inc == nil {
					inc = &llvm.Undef{Ty: v.SrcElem}
				}
				phi.AddIncoming(inc, p)
			}
		}
		// Insert in deterministic order (by variable position).
		for _, v := range vars {
			if phi, ok := phis[v]; ok {
				if len(b.Instrs) == 0 {
					b.Append(phi)
				} else {
					b.InsertBefore(phi, b.Instrs[0])
				}
			}
		}
	}

	// Remove the promoted allocas.
	for _, v := range vars {
		if v.Parent != nil {
			v.Parent.Remove(v)
		}
	}

	pruneTrivialPhis(f)
}

// pruneTrivialPhis removes phis whose incoming values are all identical (or
// the phi itself), then eliminates dead phi webs: phis used only by other
// phis that are themselves dead.
func pruneTrivialPhis(f *llvm.Function) {
	for changed := true; changed; {
		changed = false
		rep := llvm.Replacements{}
		for _, b := range f.Blocks {
			instrs := append([]*llvm.Instr(nil), b.Instrs...)
			for _, in := range instrs {
				rep.ResolveArgs(in)
				if in.Op != llvm.OpPhi {
					continue
				}
				var uniq llvm.Value
				trivial := true
				for _, a := range in.Args {
					if a == in {
						continue
					}
					if _, isUndef := a.(*llvm.Undef); isUndef {
						continue
					}
					if uniq == nil {
						uniq = a
						continue
					}
					if a != uniq {
						trivial = false
						break
					}
				}
				if !trivial || uniq == nil {
					continue
				}
				rep[in] = uniq
				b.Remove(in)
				changed = true
			}
		}
		f.ReplaceUses(rep)
		if removeDeadPhiWebs(f) {
			changed = true
		}
	}
}

// removeDeadPhiWebs deletes phis that no non-phi instruction (transitively)
// uses: liveness seeds at non-phi uses and propagates backward through phi
// operands.
func removeDeadPhiWebs(f *llvm.Function) bool {
	live := map[*llvm.Instr]bool{}
	var queue []*llvm.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == llvm.OpPhi {
				continue
			}
			for _, a := range in.Args {
				if phi, ok := a.(*llvm.Instr); ok && phi.Op == llvm.OpPhi && !live[phi] {
					live[phi] = true
					queue = append(queue, phi)
				}
			}
		}
	}
	for len(queue) > 0 {
		phi := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, a := range phi.Args {
			if p2, ok := a.(*llvm.Instr); ok && p2.Op == llvm.OpPhi && !live[p2] {
				live[p2] = true
				queue = append(queue, p2)
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		instrs := append([]*llvm.Instr(nil), b.Instrs...)
		for _, in := range instrs {
			if in.Op == llvm.OpPhi && !live[in] {
				b.Remove(in)
				changed = true
			}
		}
	}
	return changed
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
