package dse_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/dse"
	"repro/internal/flow"
	"repro/internal/hls"
	"repro/internal/kgen"
	"repro/internal/mlir"
	"repro/internal/polybench"
)

// compileTextGolden is the SHA-256 over every unit's input IR text, the
// final LLVM module and the reports of the design points hashed by
// hashCompileText. Any change to what a compile stage emits, however
// small, changes it; so does any change to the incremental-store unit
// keys, which hash the same text.
const compileTextGolden = "4461eaee7a79e325374c639b9bf0b8b68780229713ff0b1290ad4bbb85a5ec5d"

// hashFlow runs one flow with an Observer and folds the observed unit
// inputs, the final LLVM text and the reports (or the error) into h.
func hashFlow(h hash.Hash, kind, label string, m *mlir.Module, top string, d flow.Directives) {
	fmt.Fprintf(h, "== %s %s %s\n", kind, top, label)
	opts := flow.Options{Observer: func(stage, pass, ir string) {
		fmt.Fprintf(h, "-- %s/%s %d\n", stage, pass, len(ir))
		io.WriteString(h, ir)
	}}
	var res *flow.Result
	var err error
	if kind == "cxx" {
		res, err = flow.CxxFlowWith(m, top, d, hls.DefaultTarget(), opts)
	} else {
		res, err = flow.AdaptorFlowWith(m, top, d, hls.DefaultTarget(), opts)
	}
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	io.WriteString(h, res.LLVM.Print())
	io.WriteString(h, res.CSource)
	fmt.Fprintf(h, "report: %+v\n", *res.Report)
	if res.Adaptor != nil {
		fmt.Fprintf(h, "adaptor: %+v\n", res.Adaptor.Fixes)
	}
}

// hashCompileText hashes all 18 PolyBench kernels at SMALL under every
// dse.Space() configuration through the adaptor flow, then the kgen corpus
// kernels with their sampled directives through the adaptor and C++ flows.
func hashCompileText(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, k := range polybench.All() {
		s, err := k.SizeOf("SMALL")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range dse.Space() {
			hashFlow(h, "adaptor", c.Label, k.Build(s), k.Name, c.D)
		}
	}
	for _, k := range kgen.CorpusKernels() {
		for _, kind := range []string{"adaptor", "cxx"} {
			m := k.Build()
			if m == nil {
				t.Fatalf("%s: corpus text does not parse", k.Name)
			}
			hashFlow(h, kind, k.DirectiveLabel, m, k.Name, k.Directives)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompileTextGolden pins the text every compile stage produces: a
// change to how the compile path mutates IR must leave every unit's
// input, the final LLVM and the reports byte-identical.
func TestCompileTextGolden(t *testing.T) {
	if got := hashCompileText(t); got != compileTextGolden {
		t.Fatalf("compile text hash = %s, want %s", got, compileTextGolden)
	}
}
