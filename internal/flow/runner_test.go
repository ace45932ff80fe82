package flow

import (
	"context"
	"errors"
	"testing"

	"repro/internal/hls"
	"repro/internal/incr"
	"repro/internal/llvm"
	lparser "repro/internal/llvm/parser"
	lpasses "repro/internal/llvm/passes"
	"repro/internal/mlir"
	"repro/internal/polybench"
	"repro/internal/resilience"
)

// testPass is a synthetic MLIR pass running fn.
type testPass struct {
	name string
	fn   func(m *mlir.Module)
}

func (p testPass) Name() string { return p.name }

func (p testPass) Run(m *mlir.Module) error {
	p.fn(m)
	return nil
}

// runnerLevel sets the runner up at one IR level: a pipeline holding a
// module of that level, synthetic units carrying the level's real
// post-unit checks, and a pass that leaves the IR failing those checks.
type runnerLevel struct {
	name, stage string
	pipeline    func(t *testing.T, opts Options) *pipeline
	unit        func(p *pipeline, name string, fn func()) unit
	breaker     func(p *pipeline) unit
}

var runnerLevels = []runnerLevel{
	{
		name: "mlir", stage: "mlir-opt",
		pipeline: func(t *testing.T, opts Options) *pipeline {
			k := polybench.Get("gemm")
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPipeline("adaptor", k.Build(s), "gemm", Directives{}, hls.DefaultTarget(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		unit: func(p *pipeline, name string, fn func()) unit {
			return p.mlirPass(testPass{name: name, fn: func(*mlir.Module) { fn() }})
		},
		// Dropping a loop body's terminator fails the MLIR verifier, which
		// runs after every mlir-opt unit.
		breaker: func(p *pipeline) unit {
			return p.mlirPass(testPass{name: "breaker", fn: func(m *mlir.Module) {
				mlir.Walk(m.Op, func(o *mlir.Op) bool {
					if o.Name == mlir.OpAffineFor {
						b := o.Regions[0].Blocks[0]
						b.Remove(b.Terminator())
						return false
					}
					return true
				})
			}})
		},
	},
	{
		name: "llvm", stage: "llvm-opt",
		pipeline: func(t *testing.T, opts Options) *pipeline {
			lm, err := lparser.Parse("define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  %y = add i64 %x, 3\n  ret i64 %y\n}\n")
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPipeline("adaptor", nil, "f", Directives{}, hls.DefaultTarget(), opts)
			if err != nil {
				t.Fatal(err)
			}
			p.lm = lm
			return p
		},
		unit: func(p *pipeline, name string, fn func()) unit {
			return p.llvmPass(lpasses.Pass{Name: name, Run: func(*llvm.Function) { fn() }})
		},
		// The dominance breaker of lint's invariant test: swapping a def
		// below its use slips past Verify, and the VerifyEach invariants
		// must catch it.
		breaker: func(p *pipeline) unit {
			return p.llvmPass(lpasses.Pass{Name: "breaker", Run: func(f *llvm.Function) {
				e := f.Entry()
				e.Instrs[0], e.Instrs[1] = e.Instrs[1], e.Instrs[0]
			}})
		},
	},
}

// TestRunnerResilience drives synthetic units at both IR levels through
// the one runner every flow uses: panics, failed post-unit checks,
// cancellation, and fault-hook faults come back typed and attributed to
// the unit, and a replayed unit skips its checks.
func TestRunnerResilience(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, lv runnerLevel)
	}{
		{"panic", func(t *testing.T, lv runnerLevel) {
			p := lv.pipeline(t, Options{Isolate: true})
			err := p.run([]unit{
				lv.unit(p, "first", func() {}),
				lv.unit(p, "bomb", func() {
					var s []int
					_ = s[3]
				}),
			})
			f := wantFailure(t, err, lv.stage, "bomb", resilience.KindPanic)
			if f != nil && f.Stack == "" {
				t.Error("panic stack not captured")
			}
		}},
		{"verify", func(t *testing.T, lv runnerLevel) {
			p := lv.pipeline(t, Options{Isolate: true, VerifyEach: true})
			err := p.run([]unit{lv.unit(p, "first", func() {}), lv.breaker(p)})
			wantFailure(t, err, lv.stage, "breaker", resilience.KindVerify)
		}},
		{"canceled", func(t *testing.T, lv runnerLevel) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := lv.pipeline(t, Options{Isolate: true, Ctx: ctx})
			var ran []string
			mark := func(name string) unit { return lv.unit(p, name, func() { ran = append(ran, name) }) }
			err := p.run([]unit{
				mark("first"),
				lv.unit(p, "canceler", cancel),
				mark("after"),
			})
			wantFailure(t, err, lv.stage, "after", resilience.KindCanceled)
			if !errors.Is(err, context.Canceled) {
				t.Error("cause chain must expose context.Canceled")
			}
			if len(ran) != 1 || ran[0] != "first" {
				t.Errorf("units after the cancellation boundary ran: %v", ran)
			}
		}},
		{"fault-hook", func(t *testing.T, lv runnerLevel) {
			ran := false
			p := lv.pipeline(t, Options{Isolate: true, FaultHook: func(_, stage, pass string) {
				if stage == lv.stage && pass == "target" {
					panic("injected fault")
				}
			}})
			err := p.run([]unit{
				lv.unit(p, "first", func() {}),
				lv.unit(p, "target", func() { ran = true }),
			})
			wantFailure(t, err, lv.stage, "target", resilience.KindPanic)
			if ran {
				t.Error("the targeted unit's body ran after its hook panicked")
			}
		}},
		{"replay-skips-checks", func(t *testing.T, lv runnerLevel) {
			store := incr.NewMemStore()
			opts := Options{VerifyEach: true, Incremental: true, IncrStore: store, IncrSeed: "runner-" + lv.name}
			checks := 0
			counted := func(p *pipeline) []unit {
				u := lv.unit(p, "counted", func() {})
				check := u.check
				u.check = func() error {
					checks++
					return check()
				}
				return []unit{u}
			}
			cold := lv.pipeline(t, opts)
			if err := cold.run(counted(cold)); err != nil {
				t.Fatal(err)
			}
			warm := lv.pipeline(t, opts)
			if err := warm.run(counted(warm)); err != nil {
				t.Fatal(err)
			}
			if cold.memo.misses != 1 || warm.memo.hits != 1 {
				t.Fatalf("want one live run then one replay, got cold misses=%d warm hits=%d",
					cold.memo.misses, warm.memo.hits)
			}
			if checks != 1 {
				t.Errorf("checks ran %d times, want once (live run only)", checks)
			}
		}},
	}
	for _, lv := range runnerLevels {
		for _, c := range cases {
			lv, c := lv, c
			t.Run(lv.name+"/"+c.name, func(t *testing.T) { c.run(t, lv) })
		}
	}
}

// wantFailure asserts err is a typed failure of the given attribution.
func wantFailure(t *testing.T, err error, stage, pass string, kind resilience.FailureKind) *resilience.PassFailure {
	t.Helper()
	f, ok := resilience.AsPassFailure(err)
	if !ok {
		t.Fatalf("want *PassFailure, got %T: %v", err, err)
	}
	if f.Stage != stage || f.Pass != pass || f.Kind != kind {
		t.Errorf("attribution %s/%s/%s, want %s/%s/%s", f.Stage, f.Pass, f.Kind, stage, pass, kind)
	}
	return f
}
