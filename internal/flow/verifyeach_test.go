package flow

import (
	"testing"

	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/polybench"
)

// TestVerifyEachAllKernelsBothFlows is the pass-pipeline property test: every
// polybench kernel through both full flows with VerifyEach on must report
// zero invariant violations — i.e. every mlir-opt and llvm-opt pass, and
// every inter-layer boundary, leaves the IR satisfying the verifier and the
// lint invariant subset. Directives are enabled so the directive-carrying
// paths are exercised too.
func TestVerifyEachAllKernelsBothFlows(t *testing.T) {
	kernels := polybench.All()
	if len(kernels) < 18 {
		t.Fatalf("expected the full 18-kernel suite, got %d", len(kernels))
	}
	tgt := hls.DefaultTarget()
	d := Directives{Pipeline: true, II: 1}
	opts := Options{VerifyEach: true}
	for _, k := range kernels {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			s, err := k.SizeOf("MINI")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := AdaptorFlowWith(k.Build(s), k.Name, d, tgt, opts); err != nil {
				t.Errorf("adaptor flow with VerifyEach: %v", err)
			}
			if _, err := CxxFlowWith(k.Build(s), k.Name, d, tgt, opts); err != nil {
				t.Errorf("cxx flow with VerifyEach: %v", err)
			}
		})
	}
}

// TestVerifyEachMatchesDefault asserts VerifyEach changes only checking, not
// results: reports from both modes are identical.
func TestVerifyEachMatchesDefault(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	tgt := hls.DefaultTarget()
	d := Directives{Pipeline: true, II: 1}
	plain, err := AdaptorFlow(k.Build(s), k.Name, d, tgt)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := AdaptorFlowWith(k.Build(s), k.Name, d, tgt, Options{VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report.String() != checked.Report.String() {
		t.Errorf("VerifyEach changed the synthesis report:\n--- default\n%s\n--- verify-each\n%s",
			plain.Report, checked.Report)
	}
}

// TestPrepareLLVMClean asserts the pre-check entry point produces a module
// the full lint suite finds no errors in (warnings and infos are allowed).
func TestPrepareLLVMClean(t *testing.T) {
	k := polybench.Get("gemm")
	s, err := k.SizeOf("MINI")
	if err != nil {
		t.Fatal(err)
	}
	lm, err := PrepareLLVM(k.Build(s), k.Name, Directives{Pipeline: true, II: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds := lint.Module(lm, lint.Options{}); ds.HasErrors() {
		t.Errorf("prepared module has lint errors:\n%s", ds.Text())
	}
	if _, ok := lint.MinPipelineFloor(lm, k.Name, hls.DefaultTarget()); !ok {
		t.Error("gemm must expose a pipeline feasibility floor")
	}
}
