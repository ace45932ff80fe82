package hls

import "repro/internal/llvm"

// computeAddrOnly marks integer instructions whose results feed only
// address computations (GEP indices) or loop control (compares, branches,
// induction phis). HLS address-generation logic absorbs these, so they must
// not be costed as datapath operators — otherwise the direct-IR flow's
// explicit index arithmetic would be unfairly penalized against a frontend
// that hides the same math inside multi-dimensional accesses.
func computeAddrOnly(f *llvm.Function) map[*llvm.Instr]bool {
	// Each use of a candidate, with the operand position kind.
	type useKind int8
	const (
		useAddr useKind = iota // GEP index position or control (icmp/br)
		useFlow                // phi or candidate integer op: inherits
		useData                // anything else: datapath
	)
	type use struct {
		of   int // the used candidate's number
		user int // the user's candidate number, -1 when it is none
		kind useKind
	}

	isCandidateOp := func(in *llvm.Instr) bool {
		if in.Ty == nil || !in.Ty.IsInt() {
			return in.Op == llvm.OpPhi && in.Ty != nil && in.Ty.IsInt()
		}
		switch in.Op {
		case llvm.OpAdd, llvm.OpSub, llvm.OpMul, llvm.OpShl, llvm.OpAShr,
			llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpZExt, llvm.OpSExt,
			llvm.OpTrunc, llvm.OpPhi, llvm.OpSDiv, llvm.OpSRem:
			return true
		}
		return false
	}

	// Number the candidates: only their uses are ever looked up.
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	num := make(map[*llvm.Instr]int, n)
	var cands []*llvm.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if isCandidateOp(in) {
				num[in] = len(cands)
				cands = append(cands, in)
			}
		}
	}

	var uses []use
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			user, isCand := num[in]
			if !isCand {
				user = -1
			}
			for _, a := range in.Args {
				d, ok := a.(*llvm.Instr)
				if !ok {
					continue
				}
				of, ok := num[d]
				if !ok {
					continue
				}
				k := useData
				switch in.Op {
				case llvm.OpGEP:
					// A GEP absorbs its index math, and its pointer operand
					// never demotes (a GEP is no datapath user).
					k = useAddr
				case llvm.OpICmp, llvm.OpCondBr, llvm.OpBr:
					k = useAddr
				case llvm.OpPhi:
					k = useFlow
				default:
					if isCand {
						k = useFlow
					}
				}
				uses = append(uses, use{of, user, k})
			}
		}
	}

	// Fixpoint: demote candidates with data uses or flow uses into
	// non-candidates.
	alive := make([]bool, len(cands))
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for _, u := range uses {
			if alive[u.of] && (u.kind == useData || u.kind == useFlow && (u.user < 0 || !alive[u.user])) {
				alive[u.of] = false
				changed = true
			}
		}
	}

	kept := 0
	for _, ok := range alive {
		if ok {
			kept++
		}
	}
	out := make(map[*llvm.Instr]bool, kept)
	for i, in := range cands {
		if alive[i] {
			out[in] = true
		}
	}
	return out
}
