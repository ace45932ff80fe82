package flow

import (
	"fmt"
	"sync"

	"repro/internal/hls"
	"repro/internal/llvm"
	"repro/internal/mlir"
	"repro/internal/mlir/parser"
	"repro/internal/oracle"
	"repro/internal/resilience"
)

// semOracle is the per-run differential-execution state behind
// Options.VerifySemantics: one reference execution captured from the
// pristine module, checked against the evolving IR after every pipeline
// unit. A divergence comes back as a typed *resilience.PassFailure with
// KindMiscompile naming the unit that introduced it — the semantic twin of
// Bisect's crash localization — so it flows into the quarantine /
// repro-bundle / -replay machinery unchanged.
type semOracle struct {
	h *oracle.Harness
	// inject, when "stage/pass", deterministically corrupts the IR
	// immediately after that unit completes and before its oracle check —
	// the fixture that proves detection, localization, and replay.
	inject string

	// Lazy capture state (incremental runs): pristine holds the module
	// text the reference execution derives from, parsed and executed only
	// when a live unit actually asks for a check — a fully replayed run
	// never pays for the reference execution.
	pristine string
	top      string
	ulp      uint64
	once     sync.Once
	initErr  error
}

// newSemOracle captures the reference execution. The module must still be
// pristine; flows construct it before the first pass runs.
func newSemOracle(m *mlir.Module, top string, opts Options) (*semOracle, error) {
	h, err := oracle.New(m, top)
	if err != nil {
		return nil, resilience.NewFailure("oracle", "reference", resilience.KindError, err)
	}
	if opts.SemanticULP > 0 {
		h.MaxULP = opts.SemanticULP
	}
	return &semOracle{h: h, inject: opts.InjectMiscompile}, nil
}

// newLazySemOracle defers the reference execution until the first live
// unit check. pristine is the module text before any pass ran — the same
// snapshot the incremental cursor starts from.
func newLazySemOracle(pristine, top string, opts Options) *semOracle {
	return &semOracle{
		inject:   opts.InjectMiscompile,
		pristine: pristine,
		top:      top,
		ulp:      opts.SemanticULP,
	}
}

// harness returns the reference harness, capturing it on first use for a
// lazily constructed oracle. Failures keep the eager path's attribution
// (oracle/reference, KindError): an uncapturable reference is an oracle
// limitation, never a miscompile.
func (s *semOracle) harness() (*oracle.Harness, error) {
	s.once.Do(func() {
		if s.h != nil { // eagerly constructed
			return
		}
		m, err := parser.Parse(s.pristine)
		if err != nil {
			s.initErr = err
			return
		}
		h, err := oracle.New(m, s.top)
		if err != nil {
			s.initErr = err
			return
		}
		if s.ulp > 0 {
			h.MaxULP = s.ulp
		}
		s.h = h
	})
	if s.initErr != nil {
		return nil, resilience.NewFailure("oracle", "reference", resilience.KindError, s.initErr)
	}
	return s.h, nil
}

// failure types an oracle check error: wrong answers (divergence, trap,
// fuel exhaustion) are KindMiscompile; an artifact the oracle cannot
// execute is an oracle limitation, reported as KindError so it is never
// mistaken for a verified miscompile.
func (s *semOracle) failure(stage, pass string, err error) error {
	kind := resilience.KindError
	if oracle.IsMiscompile(err) {
		kind = resilience.KindMiscompile
	}
	return resilience.NewFailure(stage, pass, kind, err)
}

// afterMLIR checks the module after an MLIR-level unit (nil receiver = the
// oracle is off).
func (s *semOracle) afterMLIR(stage, pass string, m *mlir.Module) error {
	if s == nil {
		return nil
	}
	if s.inject == stage+"/"+pass {
		corruptMLIR(m)
	}
	h, err := s.harness()
	if err != nil {
		return err
	}
	if err := h.CheckMLIR(m); err != nil {
		return s.failure(stage, pass, err)
	}
	return nil
}

// afterLLVM checks the module after an LLVM-level unit.
func (s *semOracle) afterLLVM(stage, pass string, lm *llvm.Module) error {
	if s == nil {
		return nil
	}
	if s.inject == stage+"/"+pass {
		corruptLLVM(lm)
	}
	h, err := s.harness()
	if err != nil {
		return err
	}
	if err := h.CheckLLVM(lm); err != nil {
		return s.failure(stage, pass, err)
	}
	return nil
}

// corruptMLIR applies a deterministic wrong-rewrite to the module: the
// first arith.addf becomes arith.subf (falling back to mulf→addf), a
// change that keeps the IR verifiable while changing what it computes.
func corruptMLIR(m *mlir.Module) {
	var addf, mulf *mlir.Op
	mlir.Walk(m.Op, func(o *mlir.Op) bool {
		switch o.Name {
		case mlir.OpAddF:
			if addf == nil {
				addf = o
			}
		case mlir.OpMulF:
			if mulf == nil {
				mulf = o
			}
		}
		return true
	})
	if addf != nil {
		addf.Name = mlir.OpSubF
	} else if mulf != nil {
		mulf.Name = mlir.OpAddF
	}
}

// corruptLLVM is corruptMLIR at the LLVM level: first fadd→fsub, falling
// back to fmul→fadd.
func corruptLLVM(lm *llvm.Module) {
	var fadd, fmul *llvm.Instr
	for _, f := range lm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case llvm.OpFAdd:
					if fadd == nil {
						fadd = in
					}
				case llvm.OpFMul:
					if fmul == nil {
						fmul = in
					}
				}
			}
		}
	}
	if fadd != nil {
		fadd.Op = llvm.OpFSub
	} else if fmul != nil {
		fmul.Op = llvm.OpFAdd
	}
}

// conformanceGate is the adaptor flow's final static stage: the strict
// HLS-readable-IR subset check. Any post-adaptor construct outside the old
// Vitis LLVM's accepted subset is an adaptor bug, reported as a located
// diagnostic; the gate converts a non-empty report into a typed verify
// failure attributed to the "conformance" stage. It is a boundary-style
// check, not a pipeline unit, so the PipelineUnits registry stays pinned.
func conformanceGate(opts Options, lm *llvm.Module) error {
	ds := hls.Conformance(lm)
	if len(ds) == 0 {
		return nil
	}
	err := fmt.Errorf("%d HLS conformance violation(s); first: %s", len(ds), ds[0].String())
	return opts.verifyErr("conformance", "conformance", "conformance gate", err)
}
