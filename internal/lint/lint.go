// Package lint implements the static analyses of the hls-lint subsystem:
// SSA and memory-safety invariants over the LLVM-like IR, array-bounds
// reasoning against the static shapes HLS synthesis requires, loop-carried
// dependence detection, and HLS-directive feasibility lints. Checks reuse
// internal/llvm/analysis (CFG, dominators, loops, induction variables) and
// the scheduler's dependence model (internal/hls.RecMII), so diagnostics
// agree with what synthesis will actually do.
//
// The package is consumed three ways: cmd/hls-lint reports all checks, the
// flows' verify-each mode runs the invariant subset after every pass,
// and the DSE feasibility pre-check (MinPipelineFloor) prunes
// II-infeasible directive points before scheduling.
package lint

import (
	"repro/internal/absint"
	"repro/internal/bitwidth"
	"repro/internal/deptest"
	"repro/internal/diag"
	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/llvm/analysis"
)

// Check is one registered analysis.
type Check struct {
	Name string
	Desc string
	// Full is the long-form rule documentation: what the analysis proves and
	// what evidence a finding rests on. Rendered into SARIF rule metadata.
	Full string
	// Help is remediation guidance shown next to the rule.
	Help string
	// Invariant marks checks that must hold after every pass; the pass
	// managers' verify-each mode runs exactly this subset.
	Invariant bool
	Run       func(*FuncContext) diag.Diagnostics
}

// registry lists every check in reporting order.
var registry = []Check{
	{
		Name:      "ssa-dominance",
		Desc:      "every operand's definition dominates its use (stricter than Verify)",
		Full:      "Walks the dominator tree and rejects any instruction operand whose definition does not dominate the use. The structural verifier accepts such modules; this check is the stricter layer that passes must preserve.",
		Help:      "A pass reordered or moved an instruction above its operand's definition; re-run with verify-each to name the offending pass.",
		Invariant: true,
		Run:       checkSSADominance,
	},
	{
		Name:      "uninit-load",
		Desc:      "loads from local allocas that no path has initialized",
		Full:      "Forward dataflow over the CFG tracking which allocas every path has stored to; a load reached by any path with no prior store reads undefined memory, which synthesis turns into an uninitialized register.",
		Help:      "Initialize the alloca on every path before the first load, or hoist a defining store into the entry block.",
		Invariant: true,
		Run:       checkUninitLoad,
	},
	{
		Name: "dead-store",
		Desc: "stores overwritten before any read",
		Full: "Flags a store whose stored value is overwritten by a later store to the same address with no intervening load: wasted work and usually a sign of a dropped accumulator update.",
		Help: "Delete the dead store or move the intended read between the two stores.",
		Run:  checkDeadStore,
	},
	{
		Name: "dead-alloca",
		Desc: "local allocations never read",
		Full: "Flags allocas that are written but never loaded: the buffer occupies BRAM in synthesis yet no result depends on it.",
		Help: "Remove the allocation or wire its contents to the consumer that was meant to read it.",
		Run:  checkDeadAlloca,
	},
	{
		Name:      "gep-bounds",
		Desc:      "constant and induction-ranged GEP indices within static array bounds",
		Full:      "Checks every GEP index against the static array shape, using constant folding, interval analysis with branch refinement, and the affine access functions the dependence engine recovers; an index whose loop-exact range stays inside the dimension is proven safe even when its interval alone is not.",
		Help:      "Tighten the loop bound or guard the access; the finding's -explain output shows the index range and affine form the analysis derived.",
		Invariant: true,
		Run:       checkGEPBounds,
	},
	{
		Name: "loop-carried-dep",
		Desc: "memory recurrences that will constrain pipeline II",
		Full: "Runs the affine dependence-test engine (ZIV/SIV/MIV classification, GCD and Banerjee tests over recovered loop nests) on every may-aliasing store/load pair at every loop level, reporting the exact dependence distance where the accesses are affine and falling back to the structural same-address model elsewhere. A carried flow dependence bounds any pipeline of that loop at RecMII = ceil(latency / distance).",
		Help: "The code is correct; the finding explains why an aggressive II cannot be met. Restructure the recurrence (e.g. accumulate in a register) or accept the reported RecMII as the II floor.",
		Run:  checkLoopCarriedDep,
	},
	{
		Name: "hls-directives",
		Desc: "infeasible, conflicting, or ignored HLS directives",
		Full: "Validates pipeline, unroll, and array-partition directives against the dependence-implied RecMII floor, trip counts, and array shapes, so requests the scheduler will silently degrade are surfaced at lint time.",
		Help: "Raise the requested II to at least the reported floor, pick an unroll factor dividing the trip count, or shrink the partition factor to the dimension size.",
		Run:  checkDirectives,
	},
	{
		Name:      "div-by-zero",
		Desc:      "integer divisions whose divisor range includes zero",
		Full:      "Interval analysis over every sdiv/udiv/srem/urem divisor; a range containing zero is undefined behavior in the source and a hang or X-propagation in hardware.",
		Help:      "Guard the division or refine the divisor's range with a branch the analysis can see.",
		Invariant: true,
		Run:       checkDivByZero,
	},
	{
		Name: "shift-width",
		Desc: "shift amounts that can reach or exceed the operand width",
		Full: "Interval analysis over shift amounts: shifting an i-N value by N or more is undefined in the source IR and synthesizes to a mux tree with an undriven branch.",
		Help: "Mask the shift amount to the operand width or tighten the range that feeds it.",
		Run:  checkShiftWidth,
	},
	{
		Name: "unreachable-code",
		Desc: "blocks no execution can reach (constant branch conditions)",
		Full: "Sparse conditional constant propagation marks blocks no execution reaches; they cost area and usually indicate a condition folded further than intended.",
		Help: "Delete the unreachable region or fix the branch condition that constant-folds.",
		Run:  checkUnreachableCode,
	},
	{
		Name: "overflow-possible",
		Desc: "integer arithmetic whose inferred result range leaves the declared type",
		Full: "Fuses known-bits and interval analysis into a signed range per operand and recomputes each add/sub/mul without the type clamp; when the unclamped range leaves the declared width the operation can wrap on inputs the analysis could not exclude. Silent when an operand is unbounded within its type, so data-dependent arithmetic does not drown the report.",
		Help: "Widen the type, or tighten the operand ranges with a guard or mask the analysis can see; the -explain output shows both operand ranges and the unclamped result range.",
		Run:  checkOverflowPossible,
	},
	{
		Name: "truncating-store",
		Desc: "stores of truncated values whose pre-trunc range exceeds the stored width",
		Full: "Finds store instructions fed by a trunc whose operand's inferred range does not fit the destination width: high bits the producer computed are silently dropped at the memory boundary. Silent when the source is unbounded within its own type.",
		Help: "Store the full width, or prove the value narrow with a mask or guard before the trunc.",
		Run:  checkTruncatingStore,
	},
	{
		Name: "redundant-mask",
		Desc: "and-masks proven no-ops by known-bits analysis",
		Full: "Flags `and x, C` where every bit the constant mask clears is already known zero in x: the mask never changes any value and occupies LUTs. The known-bits domain tracks per-bit facts through arithmetic, shifts, and masked branch conditions.",
		Help: "Delete the and and use x directly; the -explain output shows the known-bits fact that proves the mask redundant.",
		Run:  checkRedundantMask,
	},
	{
		Name: "redundant-ext",
		Desc: "zero/sign extensions whose extended bits no consumer observes",
		Full: "Backward demanded-bits analysis over the SSA graph: a zext/sext whose demanded result bits all lie inside the source width feeds only consumers that ignore the extension, so it is pure wiring a narrower datapath would avoid.",
		Help: "Use the narrow value directly, or push the extension to the single consumer that needs it.",
		Run:  checkRedundantExt,
	},
}

// RuleMetadata returns the SARIF rule table for every registered check:
// short and full descriptions plus remediation help, keyed by check name.
func RuleMetadata() map[string]diag.RuleMeta {
	meta := make(map[string]diag.RuleMeta, len(registry))
	for _, c := range registry {
		meta[c.Name] = diag.RuleMeta{Short: c.Desc, Full: c.Full, Help: c.Help}
	}
	return meta
}

// Checks returns the registered checks in reporting order.
func Checks() []Check {
	return append([]Check(nil), registry...)
}

// CheckNames returns the registered check names in reporting order.
func CheckNames() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	return names
}

// Options selects which checks run and against which synthesis target.
type Options struct {
	// Enabled restricts the run to the named checks; nil runs all of them.
	Enabled map[string]bool
	// InvariantsOnly restricts the run to invariant checks (the verify-each
	// subset), intersected with Enabled when both are set.
	InvariantsOnly bool
	// Target provides the dependence/latency model; zero value means
	// hls.DefaultTarget().
	Target hls.Target
}

// FuncContext carries one function's analyses, shared by every check.
type FuncContext struct {
	M      *llvm.Module
	F      *llvm.Function
	CFG    *analysis.CFG
	Dom    *analysis.DomTree
	Loops  *analysis.LoopInfo
	Target hls.Target

	blockPos map[*llvm.Block]int
	instrPos map[*llvm.Instr]int

	// Abstract-interpretation results, computed on first use so checks that
	// do not need them cost nothing.
	intervals *absint.IntervalResult
	pts       *absint.PointsToResult
	sccp      *absint.SCCPResult
	dep       *deptest.Engine
	bw        *bitwidth.Analysis
}

// DepEngine returns the function's affine dependence-test engine (lazily
// computed). It is constructed exactly as the synthesis estimator builds its
// own — same loop info, same points-to oracle — so lint verdicts and
// scheduler RecMII agree.
func (ctx *FuncContext) DepEngine() *deptest.Engine {
	if ctx.dep == nil {
		ctx.dep = deptest.New(ctx.F, ctx.Loops, ctx.PointsTo().MayAlias)
	}
	return ctx.dep
}

// Intervals returns the function's value-range analysis (lazily computed).
func (ctx *FuncContext) Intervals() *absint.IntervalResult {
	if ctx.intervals == nil {
		ctx.intervals = absint.Intervals(ctx.F)
	}
	return ctx.intervals
}

// PointsTo returns the function's points-to analysis (lazily computed).
func (ctx *FuncContext) PointsTo() *absint.PointsToResult {
	if ctx.pts == nil {
		ctx.pts = absint.PointsTo(ctx.F)
	}
	return ctx.pts
}

// SCCP returns the function's conditional constant propagation (lazily
// computed).
func (ctx *FuncContext) SCCP() *absint.SCCPResult {
	if ctx.sccp == nil {
		ctx.sccp = absint.SCCP(ctx.F)
	}
	return ctx.sccp
}

// newFuncContext computes the shared analyses for f.
func newFuncContext(m *llvm.Module, f *llvm.Function, tgt hls.Target) *FuncContext {
	cfg := analysis.NewCFG(f)
	dom := analysis.NewDomTree(cfg)
	ctx := &FuncContext{
		M: m, F: f, CFG: cfg, Dom: dom,
		Loops: analysis.FindLoops(cfg, dom),
		// Under the inferred cost model the directive-feasibility floors
		// price operators at analyzed widths (no-op for the declared model).
		Target:   tgt.ResolveWidths(f),
		blockPos: map[*llvm.Block]int{},
		instrPos: map[*llvm.Instr]int{},
	}
	for bi, b := range f.Blocks {
		ctx.blockPos[b] = bi
		for ii, in := range b.Instrs {
			ctx.instrPos[in] = ii
		}
	}
	return ctx
}

// diag builds a located diagnostic. b and in may be nil for function- and
// block-level findings.
func (ctx *FuncContext) diag(sev diag.Severity, check string, b *llvm.Block, in *llvm.Instr, msg, suggestion string) diag.Diagnostic {
	d := diag.Diagnostic{
		Severity: sev, Check: check, Func: ctx.F.Name,
		Message: msg, Suggestion: suggestion,
		BlockPos: -1, InstrPos: -1,
	}
	if b != nil {
		d.Block = b.Name
		d.BlockPos = ctx.blockPos[b]
	}
	if in != nil {
		d.Instr = instrLabel(in)
		d.InstrPos = ctx.instrPos[in]
		if in.Parent != nil && b == nil {
			d.Block = in.Parent.Name
			d.BlockPos = ctx.blockPos[in.Parent]
		}
	}
	return d
}

// instrLabel names an instruction for diagnostics: its SSA result name, or
// its opcode for void instructions.
func instrLabel(in *llvm.Instr) string {
	if in.Name != "" {
		return in.Name
	}
	return string(in.Op)
}

// loopOf returns the innermost loop containing b, or nil.
func (ctx *FuncContext) loopOf(b *llvm.Block) *analysis.Loop {
	var best *analysis.Loop
	for _, l := range ctx.Loops.Loops {
		if l.Contains(b) && (best == nil || l.Depth() > best.Depth()) {
			best = l
		}
	}
	return best
}

// Module runs the selected checks over every defined function and returns
// the sorted findings.
func Module(m *llvm.Module, opts Options) diag.Diagnostics {
	tgt := opts.Target
	if tgt.ClockNs == 0 {
		tgt = hls.DefaultTarget()
	}
	var out diag.Diagnostics
	for _, f := range m.Funcs {
		if f.IsDecl || len(f.Blocks) == 0 {
			continue
		}
		ctx := newFuncContext(m, f, tgt)
		for _, c := range registry {
			if opts.Enabled != nil && !opts.Enabled[c.Name] {
				continue
			}
			if opts.InvariantsOnly && !c.Invariant {
				continue
			}
			out = append(out, c.Run(ctx)...)
		}
	}
	out.Sort()
	out.AssignIDs()
	return out
}

// Invariants runs the invariant subset and converts error-severity findings
// into a single error (nil when the module is clean). This is the check the
// flows' verify-each mode runs between passes.
func Invariants(m *llvm.Module) error {
	return Module(m, Options{InvariantsOnly: true}).AsError()
}
