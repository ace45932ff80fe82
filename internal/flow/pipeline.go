package flow

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cfront"
	"repro/internal/cgen"
	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/lint"
	"repro/internal/llvm"
	lparser "repro/internal/llvm/parser"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	"repro/internal/mlir/parser"
	"repro/internal/mlir/passes"
	"repro/internal/resilience"
	"repro/internal/translate"
)

// irLevel names the artifact a pipeline unit consumes or produces.
type irLevel uint8

const (
	noIR    irLevel = iota // synthesis produces a report, not IR
	mlirIR                 // the MLIR module
	llvmIR                 // the LLVM module
	cSource                // the HLS C++ the baseline flow emits
)

// unit is one step of a flow pipeline: the (stage, pass) that names it,
// its body, what the memo cursor needs to key, replay and re-materialize
// it, and the checks that run after it.
type unit struct {
	stage, pass string
	// params is the unit's canonical parameter string, part of its memo key.
	params string
	// in is the artifact the unit reads: the Observer snapshots it and a
	// replayed prefix materializes it. out is the artifact it rewrites, or
	// noIR when it rewrites nothing.
	in, out irLevel
	run     func() error
	// check runs after a live run, before the oracle checks the artifact
	// the unit left current.
	check func() error
	// auxOut encodes the unit's non-IR product after a live run; auxIn
	// applies a stored record's product on replay.
	auxOut func() (json.RawMessage, error)
	auxIn  func(rec incr.Record) error
}

// pipeline is one flow run: the artifacts its units rewrite, the result
// they fill, and the per-run state the runner threads through them.
type pipeline struct {
	flow, top string
	d         Directives
	tgt       hls.Target
	opts      Options
	// memo is the incremental cursor; nil disables memoization.
	memo *memoRun

	m   *mlir.Module
	lm  *llvm.Module
	res *Result
}

// newPipeline starts a run of the named flow kind on m. Adaptor and C++
// runs arm the memo cursor and the semantic oracle as opts ask; a raw run
// is never memoized or oracle-checked (its product is the violation list,
// not pipeline IR).
func newPipeline(kind string, m *mlir.Module, top string, d Directives, tgt hls.Target, opts Options) (*pipeline, error) {
	p := &pipeline{flow: kind, top: top, d: d, tgt: tgt, opts: opts, m: m,
		res: &Result{Flow: kind, Phases: Phases{}}}
	if kind == "raw" {
		return p, nil
	}
	if opts.memoEnabled() {
		p.memo = newMemoRun(opts.incrStore(), kind, top, opts, m)
	}
	if opts.VerifySemantics && opts.sem == nil {
		if p.memo != nil {
			// Defer the reference execution: a fully replayed run never
			// reaches a live check, so it never pays for one. A seeded
			// cursor skipped the pristine print, so take the snapshot here.
			pristine := p.memo.bytes
			if pristine == "" {
				pristine = m.Print()
			}
			p.opts.sem = newLazySemOracle(pristine, top, opts)
		} else {
			sem, err := newSemOracle(m, top, opts)
			if err != nil {
				return nil, err
			}
			p.opts.sem = sem
		}
	}
	return p, nil
}

// units is the flow kind's pipeline in execution order — the only
// description of it: the runner executes this list and PipelineUnits
// projects it.
func (p *pipeline) units() []unit {
	us := p.mlirOpt()
	if p.flow == "cxx" {
		return append(us,
			unit{stage: "emit-hlscpp", pass: "emit-hlscpp", in: mlirIR, out: cSource,
				run: func() error {
					src, err := cgen.Emit(p.m)
					p.res.CSource = src
					return err
				},
				auxIn: func(rec incr.Record) error {
					p.res.CSource = rec.IR
					return nil
				}},
			unit{stage: "c-frontend", pass: "c-frontend", in: cSource, out: llvmIR,
				run: func() (err error) {
					p.lm, err = cfront.Compile(p.res.CSource, cfront.Options{Top: p.top})
					return err
				},
				check: p.boundaryCheck("c-frontend")},
			p.synthesis())
	}
	us = append(us,
		unit{stage: "lowering", pass: "affine-to-scf", in: mlirIR, out: mlirIR,
			run: func() error { return lower.AffineToSCF(p.m) }},
		unit{stage: "lowering", pass: "scf-to-cf", in: mlirIR, out: mlirIR,
			run: func() error { return lower.SCFToCF(p.m) }},
		unit{stage: "translate", pass: "translate", in: mlirIR, out: llvmIR,
			run: func() (err error) {
				p.lm, err = translate.Translate(p.m, translate.Options{EmitLifetimeMarkers: true})
				return err
			},
			check: p.boundaryCheck("translate")})
	if p.flow == "raw" {
		// The raw flow exists to show the gate failure; its translation
		// runs unchecked.
		us[len(us)-1].check = nil
		return us
	}
	us = append(us, unit{stage: "adaptor", pass: "adaptor", in: llvmIR, out: llvmIR,
		run: func() error {
			rep, err := core.Adapt(p.lm, core.Options{TopFunc: p.top})
			p.res.Adaptor = rep
			return err
		},
		check: p.boundaryCheck("adaptor"),
		auxOut: func() (json.RawMessage, error) {
			if p.res.Adaptor == nil {
				return nil, nil
			}
			return json.Marshal(p.res.Adaptor)
		},
		auxIn: func(rec incr.Record) error {
			if len(rec.Aux) == 0 {
				return fmt.Errorf("record lacks adaptor report")
			}
			rep := new(core.Report)
			if err := json.Unmarshal(rec.Aux, rep); err != nil {
				return err
			}
			p.res.Adaptor = rep
			return nil
		}})
	for _, lp := range []lpasses.Pass{lpasses.PassSimplifyCFG, lpasses.PassConstFold,
		lpasses.PassStrengthReduce, lpasses.PassCSE, lpasses.PassDCE} {
		us = append(us, p.llvmPass(lp))
	}
	return append(us, p.synthesis())
}

// mlirOpt is the MLIR preparation every flow shares. The adaptor and raw
// flows materialize an unroll at the MLIR level; the C++ flow carries it
// as a pragma for the backend.
func (p *pipeline) mlirOpt() []unit {
	d := p.d
	ps := []passes.Pass{passes.MarkTop(p.top)}
	if d.Pipeline {
		ps = append(ps, passes.PipelineInnermost(max(d.II, 1)))
	}
	if d.Unroll > 1 {
		ps = append(ps, passes.MarkUnroll(d.Unroll))
		if p.flow != "cxx" {
			ps = append(ps, passes.LoopUnroll(0, true))
		}
	}
	if d.Partition != nil {
		ps = append(ps, passes.PartitionAllArgs(*d.Partition))
	}
	if d.Flatten {
		ps = append(ps, passes.MarkFlatten())
	}
	if d.Dataflow {
		ps = append(ps, passes.MarkDataflow(p.top))
	}
	ps = append(ps, passes.Canonicalize(), passes.CSE())
	// Leave room for the units after mlir-opt (ten in the adaptor flow),
	// so units appends them without regrowing the list.
	us := make([]unit, len(ps), len(ps)+10)
	for i, mp := range ps {
		us[i] = p.mlirPass(mp)
	}
	return us
}

// mlirPass is one mlir-opt pass as a unit. The MLIR verifier always runs
// after it, and the lint invariant subset under VerifyEach.
func (p *pipeline) mlirPass(mp passes.Pass) unit {
	name := mp.Name()
	return unit{stage: "mlir-opt", pass: name, params: passes.PassParams(mp), in: mlirIR, out: mlirIR,
		run: func() error {
			err := mp.Run(p.m)
			if err != nil && !p.opts.Isolate {
				return fmt.Errorf("pass %s: %w", name, err)
			}
			return err
		},
		check: func() error {
			if err := p.m.Verify(); err != nil {
				return p.opts.verifyErr("mlir-opt", name, "verification after pass "+name, err)
			}
			if !p.opts.VerifyEach {
				return nil
			}
			if err := lint.MLIRInvariants(p.m); err != nil {
				return p.opts.verifyErr("mlir-opt", name, "invariant violation after pass "+name, err)
			}
			return nil
		}}
}

// llvmPass is one llvm-opt pass as a unit, checked under VerifyEach.
func (p *pipeline) llvmPass(lp lpasses.Pass) unit {
	return unit{stage: "llvm-opt", pass: lp.Name, in: llvmIR, out: llvmIR,
		run: func() error {
			lp.Apply(p.lm)
			return nil
		},
		check: func() error { return p.llvmInvariants("llvm-opt", lp.Name, "LLVM pass "+lp.Name) }}
}

// synthesis schedules the final module. It rewrites nothing: its whole
// product is the HLS report, carried in the record's Aux. The target's
// cost-model parameters are its memo parameters, so two sweeps over
// different targets never share a schedule.
func (p *pipeline) synthesis() unit {
	return unit{stage: "synthesis", pass: "synthesis", params: p.tgt.Canon(), in: llvmIR, out: noIR,
		run: func() error {
			rep, err := hls.Synthesize(p.lm, p.top, p.tgt)
			p.res.Report = rep
			return err
		},
		auxOut: func() (json.RawMessage, error) {
			if p.res.Report == nil {
				return nil, fmt.Errorf("no synthesis report")
			}
			return json.Marshal(p.res.Report)
		},
		auxIn: func(rec incr.Record) error {
			if len(rec.Aux) == 0 {
				return fmt.Errorf("record lacks synthesis report")
			}
			r := new(hls.Report)
			if err := json.Unmarshal(rec.Aux, r); err != nil {
				return err
			}
			p.res.Report = r
			return nil
		}}
}

// boundaryCheck is the VerifyEach check at an inter-layer boundary,
// attributed to the boundary itself.
func (p *pipeline) boundaryCheck(where string) func() error {
	return func() error { return p.llvmInvariants(where, where, where) }
}

// llvmInvariants runs the verifier plus the lint invariant subset on the
// LLVM module under VerifyEach; after names the unit in untyped errors.
func (p *pipeline) llvmInvariants(stage, pass, after string) error {
	if !p.opts.VerifyEach {
		return nil
	}
	if err := p.lm.Verify(); err != nil {
		return p.opts.verifyErr(stage, pass, "verification after "+after, err)
	}
	if err := lint.Invariants(p.lm); err != nil {
		return p.opts.verifyErr(stage, pass, "invariant violation after "+after, err)
	}
	return nil
}

// verifyErr types a failed check: under Isolate a KindVerify failure naming
// the unit, otherwise the error prefixed with what.
func (o Options) verifyErr(stage, pass, what string, err error) error {
	if o.Isolate {
		return resilience.NewFailure(stage, pass, resilience.KindVerify, err)
	}
	return fmt.Errorf("%s: %w", what, err)
}

// run executes units in order and applies every per-unit concern at this
// one seam: the context check at the unit boundary; inside the recovery
// guard (under Isolate), the Observer snapshot, the FaultHook, and memo
// replay-or-run; on a live run only, the unit's check and the oracle; and
// the unit's wall time, added to its stage's phase.
func (p *pipeline) run(units []unit) error {
	o := p.opts
	for i := range units {
		u := &units[i]
		if err := resilience.Interrupted(o.Ctx, u.stage, u.pass); err != nil {
			return err
		}
		start := time.Now()
		body := func() error {
			if o.Observer != nil {
				o.Observer(u.stage, u.pass, p.text(u.in))
			}
			if o.FaultHook != nil {
				o.FaultHook(p.flow, u.stage, u.pass)
			}
			if p.memo != nil {
				return p.memo.do(p, u)
			}
			return p.live(u)
		}
		var err error
		if o.Isolate {
			err = resilience.Guard(u.stage, u.pass, body)
		} else {
			err = body()
		}
		p.res.Phases[u.stage] += time.Since(start)
		if err != nil {
			return err
		}
	}
	return nil
}

// live executes a unit, then its check, then the oracle (which applies
// InjectMiscompile) on the artifact the unit left current.
func (p *pipeline) live(u *unit) error {
	if err := u.run(); err != nil {
		return err
	}
	if u.check != nil {
		if err := u.check(); err != nil {
			return err
		}
	}
	level := u.out
	if level == noIR {
		level = u.in
	}
	switch level {
	case mlirIR:
		return p.opts.sem.afterMLIR(u.stage, u.pass, p.m)
	case llvmIR:
		return p.opts.sem.afterLLVM(u.stage, u.pass, p.lm)
	}
	return nil
}

// text renders the artifact at level l.
func (p *pipeline) text(l irLevel) string {
	switch l {
	case mlirIR:
		return p.m.Print()
	case llvmIR:
		return p.lm.Print()
	}
	return p.res.CSource
}

// materialize brings the artifact at level l up to date with the memo
// cursor's bytes. The MLIR module is refilled in place, so the caller's
// module sees the new state.
func (p *pipeline) materialize(l irLevel, src string) error {
	switch l {
	case mlirIR:
		m, err := parser.Parse(src)
		if err != nil {
			return err
		}
		p.m.Op = m.Op
	case llvmIR:
		lm, err := lparser.Parse(src)
		if err != nil {
			return err
		}
		p.lm = lm
	case cSource:
		p.res.CSource = src
	}
	return nil
}

// prepareLLVM runs the adaptor flow's units up to synthesis, then closes
// the LLVM stage: the end-of-pipeline verify (or, after a replayed tail,
// the memo's materialize-and-verify) and the conformance gate, which always
// runs on the real module so a warm run cannot slip past a gate failure
// the cold run would report.
func (p *pipeline) prepareLLVM(units []unit) error {
	if err := p.run(units); err != nil {
		return err
	}
	if p.memo != nil && p.memo.stale {
		if err := p.memo.finalize(&p.lm, true); err != nil {
			return err
		}
	} else {
		start := time.Now()
		err := p.lm.Verify()
		p.res.Phases["llvm-opt"] += time.Since(start)
		if err != nil {
			return err
		}
	}
	return conformanceGate(p.opts, p.lm)
}

// result completes the run's Result.
func (p *pipeline) result(t0 time.Time) *Result {
	res := p.res
	res.LLVM = p.lm
	res.Total = time.Since(t0)
	if p.memo != nil {
		res.UnitHits, res.UnitMisses = p.memo.hits, p.memo.misses
	}
	return res
}
