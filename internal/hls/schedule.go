package hls

import (
	"math"

	"repro/internal/deptest"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// baseOf resolves a pointer operand to its root allocation (parameter or
// alloca) by walking back through GEPs and casts.
func baseOf(v llvm.Value) llvm.Value {
	for {
		in, ok := v.(*llvm.Instr)
		if !ok {
			return v
		}
		switch in.Op {
		case llvm.OpGEP, llvm.OpBitcast, llvm.OpIntToPtr, llvm.OpPtrToInt:
			v = in.Args[0]
		default:
			return v
		}
	}
}

// blockSchedule is the result of scheduling one straight-line instruction
// sequence.
type blockSchedule struct {
	// Cycles is the schedule length.
	Cycles int64
	// MemAccesses counts load/store operations per base array.
	MemAccesses map[llvm.Value]int
	// MaxChainNs is the longest combinational chain packed into one cycle
	// (the critical path bounding the achievable clock).
	MaxChainNs float64
}

// scheduleInstrs is scheduleInstrsPorts with the default port width for
// every array.
func (t Target) scheduleInstrs(instrs []*llvm.Instr) blockSchedule {
	return t.scheduleInstrsPorts(instrs, nil)
}

// scheduleInstrsPorts runs chaining-aware, memory-port-constrained list
// scheduling over an instruction sequence (one block, or a loop iteration's
// blocks concatenated). Values defined outside the sequence are ready at
// time zero. portsOf overrides the per-array port count (array
// partitioning multiplies the default dual ports); nil uses the default.
func (t Target) scheduleInstrsPorts(instrs []*llvm.Instr, portsOf func(llvm.Value) int) blockSchedule {
	clk := t.ClockNs
	// finish holds the finish time in ns of each instruction scheduled so
	// far; operands without an entry are ready at time zero.
	finish := make(map[*llvm.Instr]float64, len(instrs))
	// Memory ordering state per base.
	lastStoreFinish := map[llvm.Value]float64{}
	lastAccessFinish := map[llvm.Value]float64{}
	// Port occupancy per base per cycle.
	ports := map[llvm.Value]map[int64]int{}
	mem := map[llvm.Value]int{}
	portWidth := func(base llvm.Value) int {
		if portsOf != nil {
			if n := portsOf(base); n > 0 {
				return n
			}
		}
		return t.MemPorts
	}

	var maxFinish float64
	var maxChain float64
	for _, in := range instrs {
		cost := t.CostOf(in)
		// Any single stage's delay bounds the achievable clock.
		if cost.Delay > maxChain {
			maxChain = cost.Delay
		}
		ready := 0.0
		for _, a := range in.Args {
			if d, ok := a.(*llvm.Instr); ok {
				if f, ok := finish[d]; ok && f > ready {
					ready = f
				}
			}
		}
		var base llvm.Value
		switch in.Op {
		case llvm.OpLoad:
			base = baseOf(in.Args[0])
			if f := lastStoreFinish[base]; f > ready {
				ready = f
			}
		case llvm.OpStore:
			base = baseOf(in.Args[1])
			if f := lastAccessFinish[base]; f > ready {
				ready = f
			}
		}

		var end float64
		if cost.Latency == 0 {
			// Combinational: chain if the delay fits in the current cycle.
			start := ready
			cycleEnd := (math.Floor(start/clk) + 1) * clk
			if start+cost.Delay > cycleEnd {
				start = math.Ceil(start/clk) * clk
				if start == ready && start+cost.Delay > start+clk {
					// Single op longer than a cycle: takes one full cycle.
					cost.Delay = clk
				}
			}
			end = start + cost.Delay
			if chain := end - math.Floor(end/clk)*clk; chain > maxChain && chain <= clk {
				maxChain = chain
			}
		} else {
			// Sequential: starts at a cycle boundary.
			startCycle := int64(math.Ceil(ready / clk))
			if base != nil {
				if ports[base] == nil {
					ports[base] = map[int64]int{}
				}
				for ports[base][startCycle] >= portWidth(base) {
					startCycle++
				}
				ports[base][startCycle]++
				mem[base]++
			}
			end = float64(startCycle+int64(cost.Latency)) * clk
		}
		finish[in] = end
		if end > maxFinish {
			maxFinish = end
		}
		switch in.Op {
		case llvm.OpLoad:
			if end > lastAccessFinish[base] {
				lastAccessFinish[base] = end
			}
		case llvm.OpStore:
			if end > lastStoreFinish[base] {
				lastStoreFinish[base] = end
			}
			if end > lastAccessFinish[base] {
				lastAccessFinish[base] = end
			}
		}
	}
	cycles := int64(math.Ceil(maxFinish / clk))
	if cycles == 0 && len(instrs) > 0 {
		cycles = 1
	}
	return blockSchedule{Cycles: cycles, MemAccesses: mem, MaxChainNs: maxChain}
}

// recMII computes the recurrence-constrained minimum initiation interval of
// a loop iteration. With a dependence engine (eng and l non-nil) it is
// distance-aware: a loop-carried flow dependence of exact distance d bounds
// the II at ceil(latency/d) — the cycle closes every d iterations, so its
// latency amortizes over d initiations — and pairs the engine proves
// independent constrain nothing. Without the engine (or when a pair's
// accesses are non-affine) it falls back to the structural model: a load
// that reads a location stored at a loop-INVARIANT address (the classic
// accumulation recurrence C[i][j] += ... in a k-loop) is a distance-1
// recurrence; addresses varying with the induction variable are assumed
// recurrence-free.
// ivDependent reports whether a value depends on the loop's induction phi.
// mayAlias (may be nil) is a points-to oracle: pairs it disproves carry no
// dependence and are skipped before any dependence test.
func (t Target) recMII(eng *deptest.Engine, l *analysis.Loop,
	instrs []*llvm.Instr, ivDependent func(llvm.Value) bool,
	mayAlias func(a, b llvm.Value) bool) int {
	rec := 1
	for _, ld := range instrs {
		if ld.Op != llvm.OpLoad {
			continue
		}
		for _, st := range instrs {
			if st.Op != llvm.OpStore {
				continue
			}
			if mayAlias != nil && !mayAlias(ld.Args[0], st.Args[1]) {
				continue
			}
			dist := int64(0) // 0: undecided, fall back to the structural model
			if eng != nil && l != nil {
				switch cd := eng.Carried(l, st, ld); cd.Res {
				case deptest.Independent:
					continue
				case deptest.Dependent:
					dist = 1
					if cd.Exact {
						dist = cd.Dist
					}
				}
			}
			if dist == 0 {
				if !sameAddress(ld.Args[0], st.Args[1]) {
					continue
				}
				if ivDependent != nil && ivDependent(ld.Args[0]) {
					continue
				}
				dist = 1
			}
			// Path from the load to the stored value through def-use edges.
			if depth, ok := t.pathLatency(ld, st.Args[0], instrs); ok {
				// The recurrence is load -> compute -> store -> (next load),
				// closed every dist iterations.
				total := (int64(depth) + 1 + dist - 1) / dist // +1 for the store write
				if int(total) > rec {
					rec = int(total)
				}
			}
		}
	}
	return rec
}

// sameAddress reports whether two pointer operands are provably the same
// address: the same SSA value, or GEPs off the same base with identical
// index operands.
func sameAddress(a, b llvm.Value) bool {
	if a == b {
		return true
	}
	ga, ok1 := a.(*llvm.Instr)
	gb, ok2 := b.(*llvm.Instr)
	if !ok1 || !ok2 || ga.Op != llvm.OpGEP || gb.Op != llvm.OpGEP {
		return false
	}
	if ga.Args[0] != gb.Args[0] || len(ga.Args) != len(gb.Args) {
		return false
	}
	for i := 1; i < len(ga.Args); i++ {
		if !sameIndexValue(ga.Args[i], gb.Args[i], 8) {
			return false
		}
	}
	return true
}

// sameIndexValue compares two index computations structurally: identical
// SSA values, equal constants, or pure arithmetic trees of the same shape
// over the same leaves (both flows rematerialize the address chain per
// access, so pointer identity alone misses equal addresses).
func sameIndexValue(a, b llvm.Value, depth int) bool {
	if a == b {
		return true
	}
	if depth == 0 {
		return false
	}
	if ca, ok := a.(*llvm.ConstInt); ok {
		cb, ok := b.(*llvm.ConstInt)
		return ok && ca.Val == cb.Val
	}
	ia, ok1 := a.(*llvm.Instr)
	ib, ok2 := b.(*llvm.Instr)
	if !ok1 || !ok2 || ia.Op != ib.Op || len(ia.Args) != len(ib.Args) {
		return false
	}
	switch ia.Op {
	case llvm.OpAdd, llvm.OpSub, llvm.OpMul, llvm.OpShl, llvm.OpAShr,
		llvm.OpAnd, llvm.OpOr, llvm.OpXor, llvm.OpZExt, llvm.OpSExt,
		llvm.OpTrunc, llvm.OpGEP:
	default:
		return false // non-pure ops: only pointer identity counts
	}
	for i := range ia.Args {
		if !sameIndexValue(ia.Args[i], ib.Args[i], depth-1) {
			return false
		}
	}
	return true
}

// pathLatency returns the cycle latency of the def-use path from src's
// result to dst (inclusive of src's own latency), with ok=false when dst
// does not depend on src. Phi operands are not traversed: a path through a
// phi crosses iterations and is not part of this same-iteration recurrence.
func (t Target) pathLatency(src *llvm.Instr, dst llvm.Value, instrs []*llvm.Instr) (int, bool) {
	visiting := map[*llvm.Instr]bool{}
	var walk func(v llvm.Value) (int, bool)
	walk = func(v llvm.Value) (int, bool) {
		if v == src {
			c := t.CostOf(src)
			return maxInt(c.Latency, 1), true
		}
		din, ok := v.(*llvm.Instr)
		if !ok || din.Op == llvm.OpPhi || visiting[din] {
			return 0, false
		}
		visiting[din] = true
		best := -1
		for _, a := range din.Args {
			if d, ok := walk(a); ok && d > best {
				best = d
			}
		}
		visiting[din] = false
		if best < 0 {
			return 0, false
		}
		c := t.CostOf(din)
		return best + c.Latency, true
	}
	return walk(dst)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
