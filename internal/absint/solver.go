// Package absint is the abstract-interpretation layer of the static-analysis
// subsystem: a generic forward dataflow solver over the analysis.CFG plus
// three client domains over the LLVM-like IR — integer intervals (value
// ranges with widening/narrowing and branch refinement), a flow-insensitive
// Andersen-style points-to analysis (MayAlias), and sparse conditional
// constant propagation (unreachable-block detection). The lint checks, the
// scheduler's dependence test, and the DSE feasibility pre-check consume
// these results instead of hand-rolling per-check dataflow.
package absint

import (
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Domain describes one abstract domain the solver can run. S is the whole
// per-program-point abstract state (an environment mapping SSA values to
// abstract values); the zero S never reaches Transfer — the solver only
// propagates states derived from Entry.
type Domain[S any] interface {
	// Entry is the abstract state on function entry.
	Entry(f *llvm.Function) S
	// Join computes the least upper bound of two states.
	Join(a, b S) S
	// Widen extrapolates next against prev so ascending chains terminate.
	// When at is a loop header, only the values that loop itself mutates —
	// the header's phis — need extrapolation; loop-invariant values carried
	// from outer loops must NOT be widened, or their branch-refined ranges
	// are lost to a stale copy cycling the backedge that narrowing can never
	// shrink (no condition inside the loop re-establishes them). at == nil is
	// the irreducible-cycle fallback: widen everything. Domains with finite
	// height can return Join(prev, next) regardless.
	Widen(at *llvm.Block, prev, next S) S
	// Equal reports whether two states are equal (fixpoint detection).
	Equal(a, b S) bool
	// Transfer applies the block's instructions to the incoming state.
	Transfer(b *llvm.Block, in S) S
	// FlowEdge specializes out for the from→to CFG edge: branch-condition
	// refinement and phi-operand binding live here. ok=false marks the edge
	// infeasible (the branch provably never takes it), which is how sparse
	// conditional behavior reaches every client domain.
	FlowEdge(from, to *llvm.Block, out S) (S, bool)
}

// Result holds the solved per-block states of one function.
type Result[S any] struct {
	CFG *analysis.CFG
	// In and Out are the abstract states at block entry and exit; only
	// blocks with Reached(b) have meaningful entries.
	In, Out map[*llvm.Block]S

	reached map[*llvm.Block]bool
}

// Reached reports whether the analysis found b reachable: CFG-reachable and
// with at least one feasible incoming path. CFG-reachable blocks with
// !Reached are the "unreachable code" sparse conditional analysis exposes.
func (r *Result[S]) Reached(b *llvm.Block) bool { return r.reached[b] }

type edgeKey struct{ from, to *llvm.Block }

// narrowingRounds caps the descending iteration after the widened fixpoint:
// each pass recovers loop-exit bounds lost to widening one nesting level
// deeper, and the loop exits early once an entire pass changes nothing.
const narrowingRounds = 8

// Solve runs the domain to fixpoint over f: an ascending worklist phase in
// reverse postorder with widening at natural-loop headers (and at any block
// revisited often enough that an irreducible cycle must be suspected),
// followed by a bounded narrowing phase. Edge infeasibility discovered by
// FlowEdge propagates: blocks whose every incoming edge is infeasible are
// never visited and stay !Reached.
func Solve[S any](f *llvm.Function, d Domain[S]) *Result[S] {
	cfg := analysis.NewCFG(f)
	dom := analysis.NewDomTree(cfg)
	loops := analysis.FindLoops(cfg, dom)
	isHeader := map[*llvm.Block]bool{}
	for _, l := range loops.Loops {
		isHeader[l.Header] = true
	}
	res := &Result[S]{
		CFG: cfg,
		In:  map[*llvm.Block]S{}, Out: map[*llvm.Block]S{},
		reached: map[*llvm.Block]bool{},
	}
	if len(cfg.Order) == 0 {
		return res
	}
	entry := cfg.Order[0]
	rpoIndex := map[*llvm.Block]int{}
	for i, b := range cfg.Order {
		rpoIndex[b] = i
	}

	edge := map[edgeKey]S{}
	hasEdge := map[edgeKey]bool{}

	inState := func(b *llvm.Block) (S, bool) {
		if b == entry {
			return d.Entry(f), true
		}
		var in S
		first := true
		for _, p := range cfg.Preds(b) {
			k := edgeKey{p, b}
			if !hasEdge[k] {
				continue
			}
			if first {
				in, first = edge[k], false
			} else {
				in = d.Join(in, edge[k])
			}
		}
		return in, !first
	}
	flowOut := func(b *llvm.Block, out S) (changed bool) {
		for _, s := range dedupSuccs(b) {
			k := edgeKey{b, s}
			es, feasible := d.FlowEdge(b, s, out)
			if !feasible {
				if hasEdge[k] {
					// Ascending states only grow, so a feasible edge cannot
					// become infeasible mid-ascent; this fires only while
					// narrowing, where dropping the edge is the refinement.
					hasEdge[k] = false
					changed = true
				}
				continue
			}
			if hasEdge[k] && d.Equal(edge[k], es) {
				continue
			}
			hasEdge[k], edge[k] = true, es
			changed = true
		}
		return changed
	}

	// Ascending phase: worklist ordered by reverse postorder. forceWiden
	// guards against irreducible cycles (no natural-loop header to widen at):
	// any block revisited implausibly often starts widening regardless.
	inWork := make([]bool, len(cfg.Order))
	visits := map[*llvm.Block]int{}
	forceWiden := 2*len(cfg.Order) + 8
	inWork[0] = true
	for {
		b := (*llvm.Block)(nil)
		for i, w := range inWork {
			if w {
				inWork[i] = false
				b = cfg.Order[i]
				break
			}
		}
		if b == nil {
			break
		}
		in, ok := inState(b)
		if !ok {
			continue // no feasible incoming edge yet
		}
		visits[b]++
		if old, seen := res.In[b]; seen {
			if visits[b] > forceWiden {
				in = d.Widen(nil, old, in)
			} else if isHeader[b] {
				in = d.Widen(b, old, in)
			}
			if res.reached[b] && d.Equal(old, in) {
				continue
			}
		}
		res.In[b], res.reached[b] = in, true
		out := d.Transfer(b, in)
		res.Out[b] = out
		if flowOut(b, out) {
			for _, s := range dedupSuccs(b) {
				if i, ok := rpoIndex[s]; ok {
					inWork[i] = true
				}
			}
		}
	}

	// Narrowing phase: recompute every state in RPO without widening,
	// letting refined branch conditions shrink intervals and kill edges.
	// Back-edge states come from the previous round — a sound
	// over-approximation — so each recomputed state stays sound.
	for round := 0; round < narrowingRounds; round++ {
		reached := map[*llvm.Block]bool{}
		changed := false
		for _, b := range cfg.Order {
			in, ok := inState(b)
			if !ok {
				for _, s := range dedupSuccs(b) {
					if hasEdge[edgeKey{b, s}] {
						hasEdge[edgeKey{b, s}] = false
						changed = true
					}
				}
				continue
			}
			reached[b] = true
			res.In[b] = in
			out := d.Transfer(b, in)
			res.Out[b] = out
			if flowOut(b, out) {
				changed = true
			}
		}
		res.reached = reached
		if !changed {
			break
		}
	}
	return res
}

// dedupSuccs returns a block's successors with a both-arms-same conditional
// branch collapsed to one edge (FlowEdge cannot tell the arms apart).
func dedupSuccs(b *llvm.Block) []*llvm.Block {
	succs := b.Succs()
	if len(succs) == 2 && succs[0] == succs[1] {
		return succs[:1]
	}
	return succs
}
