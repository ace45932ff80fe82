// Package flow wires the complete compilation pipelines the paper compares:
//
//   - AdaptorFlow (the paper's contribution): MLIR passes → affine→scf→cf
//     lowering → translation to LLVM IR → the HLS adaptor → LLVM-level
//     cleanup → HLS synthesis.
//   - CxxFlow (the baseline): MLIR passes → HLS C++ emission → C frontend
//     (Vitis Clang stand-in) → HLS synthesis.
//   - RawFlow: translation without the adaptor, to demonstrate the gate
//     failure the adaptor exists to fix.
//
// Each flow is one ordered list of pipeline units (pipeline.go), executed
// by one runner that applies the cross-cutting concerns — recovery guard,
// fault hook, observer, memoization, verify-each, oracle, timing — to
// every unit alike.
package flow

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/llvm"
	"repro/internal/llvm/interp"
	"repro/internal/mlir"
	"repro/internal/mlir/passes"
	"repro/internal/resilience"
)

// Options tunes how a flow runs beyond the HLS directives.
type Options struct {
	// VerifyEach re-checks the IR invariants after every mlir-opt and
	// llvm-opt pass (verifier plus the lint invariant subset), and
	// additionally at each inter-layer boundary (post-translate,
	// post-adaptor, post-C-frontend). A violation fails the flow naming
	// the offending pass or boundary — the -verify-each flag of the cmd
	// tools.
	VerifyEach bool

	// Ctx, when non-nil, is checked cooperatively at every pipeline-unit
	// boundary: once done, the flow stops at the next boundary with a
	// typed timeout/cancellation failure instead of running to completion
	// in a leaked goroutine.
	Ctx context.Context

	// Isolate runs every pipeline unit inside a recovery boundary: a panic
	// anywhere in a pass, the translation, the adaptor, or synthesis comes
	// back as a *resilience.PassFailure (stage, pass, kind, stack) instead
	// of killing the process.
	Isolate bool

	// FaultHook, when non-nil, is called inside each unit's recovery
	// boundary just before the unit body with (flow, stage, pass) — the
	// deterministic fault-injection point the resilience tests use (a
	// panicking hook is attributed to the unit it targeted).
	FaultHook func(flow, stage, pass string)

	// Observer, when non-nil, receives the IR entering every pipeline unit
	// as (stage, pass, ir) — MLIR text through the MLIR stages, LLVM text
	// after translation, C source entering the C frontend. The bisection
	// replay records per-unit snapshots through it.
	Observer func(stage, pass, ir string)

	// Fallback enables graceful degradation for AdaptorFlowWith: when the
	// direct-IR path fails, the kernel is rebuilt through this function
	// and rerun through the C++ flow, and the result comes back with
	// Degraded set and the direct-path failure attached instead of an
	// error. Flows mutate their input, so Fallback must build a fresh
	// module (engine jobs reuse Job.Build).
	Fallback func() *mlir.Module

	// VerifySemantics runs the differential-execution oracle: a reference
	// execution of the pristine kernel is captured before the first pass,
	// and the evolving IR is re-executed and compared against it after
	// every pipeline unit (integers bitwise, floats within a ULP
	// tolerance). The first divergence fails the flow with a typed
	// KindMiscompile failure naming the unit that introduced it — the
	// -verify-semantics flag of the cmd tools.
	VerifySemantics bool

	// SemanticULP overrides the oracle's float tolerance in units in the
	// last place at the element width; 0 uses oracle.DefaultMaxULP.
	SemanticULP uint64

	// InjectMiscompile, when set to "stage/pass", deterministically
	// corrupts the IR immediately after the named unit completes (first
	// float add becomes a subtract), so the unit's own oracle check — and
	// only it — must catch the wrong answer. Recorded in repro bundles so
	// -replay re-arms the same corruption. Requires VerifySemantics to
	// have any observable effect beyond the corruption itself.
	InjectMiscompile string

	// Incremental enables per-unit memoization: every pipeline unit is
	// keyed by SHA-256 of the flow configuration, the unit's name and
	// parameters, and its exact input-IR bytes, and a hit replays the
	// stored output bytes instead of executing the unit — so a directive
	// change re-runs the flow only from the first affected unit, and a
	// repeated design point replays its whole prefix. Runs with an
	// Observer, FaultHook, or InjectMiscompile execute live regardless:
	// those hooks observe or perturb live units. RawFlow is never
	// memoized (its product is the violation list, not pipeline IR).
	// The -incremental flag of the cmd tools.
	Incremental bool

	// IncrStore is the record store consulted under Incremental. Nil uses
	// incr.Default, the process-wide in-memory store; point it at an
	// incr.DiskStore for cross-process warm starts. Engines share one
	// store across all jobs of a DSE run.
	IncrStore incr.Store

	// IncrSeed, when non-empty under Incremental, identifies the input
	// module without printing it: the memo cursor starts from the seed's
	// digest instead of the module text, saving the pristine Print on
	// every warm run. The caller must guarantee the seed uniquely
	// determines the module bytes — the engine derives it from the job's
	// kernel and size, resting on the same build determinism its
	// whole-flow cache already assumes. Seeded and unseeded runs key
	// disjoint record chains.
	IncrSeed string

	// sem is the constructed per-run oracle, populated by newPipeline when
	// VerifySemantics is set and shared across the run's stages (including
	// the degraded C++ rerun, whose kernel has the same reference
	// semantics).
	sem *semOracle
}

// Directives selects the HLS optimization configuration applied before the
// flows diverge.
type Directives struct {
	// Pipeline marks innermost loops for pipelining with the target II.
	Pipeline bool
	II       int
	// Unroll sets an innermost unroll factor (1 = off). The adaptor flow
	// materializes it at the MLIR level; the C++ flow carries it as a
	// pragma consumed by the backend — exactly the asymmetry between
	// ScaleHLS-style tools and Vitis.
	Unroll int
	// Partition applies an array partition to every memref argument.
	Partition *passes.PartitionSpec
	// Flatten marks perfect nest levels for loop flattening so the inner
	// pipeline keeps issuing across outer iterations.
	Flatten bool
	// Dataflow requests task-level parallelism across independent
	// top-level loops (#pragma HLS dataflow).
	Dataflow bool
}

// Result is the outcome of one flow run.
type Result struct {
	Flow    string
	Report  *hls.Report
	Adaptor *core.Report // adaptor flow only
	LLVM    *llvm.Module
	CSource string // C++ flow only

	// Phases records per-phase wall time. Each Result owns its map;
	// cross-run aggregation must go through Phases.Merge.
	Phases Phases
	Total  time.Duration

	// Degraded marks a result produced by the C++ fallback path after the
	// direct-IR flow failed; Failure carries that direct-path failure.
	Degraded bool
	Failure  *resilience.PassFailure

	// UnitHits and UnitMisses count pipeline units replayed from the
	// incremental store vs executed live (both zero when Incremental is
	// off or suppressed by an observation hook).
	UnitHits, UnitMisses int
}

// PrepareLLVM runs the adaptor flow up to (but not including) synthesis and
// returns the cleaned LLVM module — the input the DSE feasibility pre-check
// lints without paying for a schedule.
func PrepareLLVM(m *mlir.Module, top string, d Directives) (*llvm.Module, error) {
	p, _ := newPipeline("adaptor", m, top, d, hls.Target{}, Options{}) // no oracle, so no error
	units := p.units()
	if err := p.prepareLLVM(units[:len(units)-1]); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return p.lm, nil
}

// AdaptorFlow runs the paper's direct-IR flow end to end.
func AdaptorFlow(m *mlir.Module, top string, d Directives, tgt hls.Target) (*Result, error) {
	return AdaptorFlowWith(m, top, d, tgt, Options{})
}

// AdaptorFlowWith is AdaptorFlow with explicit options.
func AdaptorFlowWith(m *mlir.Module, top string, d Directives, tgt hls.Target, opts Options) (*Result, error) {
	t0 := time.Now()
	p, err := newPipeline("adaptor", m, top, d, tgt, opts)
	if err != nil {
		return nil, fmt.Errorf("adaptor flow: %w", err)
	}
	units := p.units()
	last := len(units) - 1
	if err := p.prepareLLVM(units[:last]); err != nil {
		return degradeOrFail(p.opts, top, d, tgt, err)
	}
	if err := p.run(units[last:]); err != nil {
		return degradeOrFail(p.opts, top, d, tgt, err)
	}
	return p.result(t0), nil
}

// degradeOrFail implements graceful degradation: with a Fallback builder
// and a deterministic direct-path failure, the kernel reruns through the
// C++ baseline flow and the result is tagged Degraded with the captured
// failure attached. Transient failures (timeout, cancellation) never fall
// back — the context that killed the direct path would kill the fallback
// at its first boundary too, and the caller's retry policy owns them.
func degradeOrFail(opts Options, top string, d Directives, tgt hls.Target, cause error) (*Result, error) {
	if opts.Fallback == nil || resilience.Transient(cause) {
		return nil, fmt.Errorf("adaptor flow: %w", cause)
	}
	pf, ok := resilience.AsPassFailure(cause)
	if !ok {
		pf = resilience.NewFailure("adaptor-flow", "adaptor-flow", resilience.KindError, cause)
	}
	m2 := opts.Fallback()
	if m2 == nil {
		return nil, fmt.Errorf("adaptor flow: %w (fallback builder returned no module)", cause)
	}
	fopts := opts
	fopts.Fallback = nil
	res, err := CxxFlowWith(m2, top, d, tgt, fopts)
	if err != nil {
		return nil, fmt.Errorf("adaptor flow: %w (C++ fallback also failed: %v)", cause, err)
	}
	res.Flow = "cxx-fallback"
	res.Degraded = true
	res.Failure = pf
	return res, nil
}

// CxxFlow runs the baseline HLS-C++ flow end to end.
func CxxFlow(m *mlir.Module, top string, d Directives, tgt hls.Target) (*Result, error) {
	return CxxFlowWith(m, top, d, tgt, Options{})
}

// CxxFlowWith is CxxFlow with explicit options.
func CxxFlowWith(m *mlir.Module, top string, d Directives, tgt hls.Target, opts Options) (*Result, error) {
	t0 := time.Now()
	p, err := newPipeline("cxx", m, top, d, tgt, opts)
	if err != nil {
		return nil, fmt.Errorf("cxx flow: %w", err)
	}
	if err := p.run(p.units()); err != nil {
		return nil, fmt.Errorf("cxx flow: %w", err)
	}
	if p.memo != nil {
		// A replayed tail leaves the module behind the cursor; the Result
		// must carry the real final module. No post-frontend verify to
		// mirror here — the cold path never ran one.
		if err := p.memo.finalize(&p.lm, false); err != nil {
			return nil, fmt.Errorf("cxx flow: %w", err)
		}
	}
	return p.result(t0), nil
}

// RawFlow translates without adapting and returns the gate violations (nil
// error with non-empty violations is the expected outcome).
func RawFlow(m *mlir.Module, top string, d Directives) ([]hls.Violation, *llvm.Module, error) {
	return RawFlowWith(m, top, d, Options{})
}

// RawFlowWith is RawFlow with explicit options (resilience boundaries
// included, so engine-run raw jobs cannot crash the process either).
func RawFlowWith(m *mlir.Module, top string, d Directives, opts Options) ([]hls.Violation, *llvm.Module, error) {
	p, _ := newPipeline("raw", m, top, d, hls.Target{}, opts) // a raw run builds no oracle, so no error
	if err := p.run(p.units()); err != nil {
		return nil, nil, err
	}
	return hls.Check(p.lm), p.lm, nil
}

// Execute runs the flow's final LLVM module on the given buffers (one per
// array port, in parameter order), standing in for co-simulation.
func Execute(lm *llvm.Module, top string, mems []*interp.Mem) error {
	f := lm.FindFunc(top)
	if f == nil {
		return fmt.Errorf("execute: @%s not found", top)
	}
	if len(mems) != len(f.Params) {
		return fmt.Errorf("execute: @%s has %d ports, got %d buffers", top, len(f.Params), len(mems))
	}
	args := make([]interp.Arg, len(mems))
	for i := range mems {
		args[i] = interp.PtrArg(mems[i], 0)
	}
	machine := interp.NewMachine(lm)
	_, _, err := machine.Run(context.Background(), top, args...)
	return err
}
