package flow

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hls"
	llparser "repro/internal/llvm/parser"
	"repro/internal/mlir"
	"repro/internal/mlir/lower"
	mlirparser "repro/internal/mlir/parser"
	"repro/internal/polybench"
	"repro/internal/translate"
)

// TestTextualToolPipeline mirrors the CLI composition
//
//	mlir-opt | mlir-translate | hls-adaptor | vitis-sim
//
// in-process: every stage is serialized to text and re-parsed before the
// next stage, and the end result must match the in-memory flow exactly.
func TestTextualToolPipeline(t *testing.T) {
	k := polybench.Get("gemm")
	s, _ := k.SizeOf("MINI")
	d := Directives{Pipeline: true, II: 1}

	// Reference: the in-memory flow.
	ref, err := AdaptorFlow(k.Build(s), k.Name, d, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: mlir-opt (directive passes) -> text.
	m := k.Build(s)
	p, _ := newPipeline("adaptor", m, k.Name, d, hls.DefaultTarget(), Options{})
	if err := p.run(p.mlirOpt()); err != nil {
		t.Fatal(err)
	}
	mlirText := m.Print()

	// Stage 2: parse + lower + translate -> .ll text.
	m2, err := mlirparser.Parse(mlirText)
	if err != nil {
		t.Fatalf("stage 2 parse: %v", err)
	}
	if err := lower.AffineToSCF(m2); err != nil {
		t.Fatal(err)
	}
	if err := lower.SCFToCF(m2); err != nil {
		t.Fatal(err)
	}
	lm, err := translate.Translate(m2, translate.Options{EmitLifetimeMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	llText := lm.Print()

	// Stage 3: hls-adaptor on reparsed IR -> adapted text.
	lm2, err := llparser.Parse(llText)
	if err != nil {
		t.Fatalf("stage 3 parse: %v", err)
	}
	if _, err := core.Adapt(lm2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	adaptedText := lm2.Print()

	// Stage 4: vitis-sim on reparsed adapted IR.
	lm3, err := llparser.Parse(adaptedText)
	if err != nil {
		t.Fatalf("stage 4 parse: %v", err)
	}
	rep, err := hls.Synthesize(lm3, k.Name, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}

	// The textual pipeline skips the in-memory flow's llvm-opt phase, so
	// compare against a freshly-synthesized run of the reference IR rather
	// than cycle counts that cleanup could shift. Here both must at least
	// agree on loop structure and II.
	if len(rep.Loops) != len(ref.Report.Loops) {
		t.Fatalf("loop structure diverged: %d vs %d loops",
			len(rep.Loops), len(ref.Report.Loops))
	}
	for i := range rep.Loops {
		if rep.Loops[i].Trip != ref.Report.Loops[i].Trip {
			t.Errorf("loop %d trip: %d vs %d", i, rep.Loops[i].Trip, ref.Report.Loops[i].Trip)
		}
		if rep.Loops[i].Pipelined != ref.Report.Loops[i].Pipelined ||
			rep.Loops[i].II != ref.Report.Loops[i].II {
			t.Errorf("loop %d pipeline: II=%d/%v vs II=%d/%v", i,
				rep.Loops[i].II, rep.Loops[i].Pipelined,
				ref.Report.Loops[i].II, ref.Report.Loops[i].Pipelined)
		}
	}
}

// TestScaleLargerKernel guards against superlinear blowups: a 32^3 gemm
// (32768 iterations) must compile through both flows quickly and still
// verify functionally in the interpreter.
func TestScaleLargerKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test in short mode")
	}
	const n = 32
	m := mlir.NewModule()
	ty := mlir.MemRef([]int64{n, n}, mlir.F32())
	_, args := m.AddFunc("big", []*mlir.Type{ty, ty, ty}, nil)
	b := mlir.NewBuilder(mlir.FuncBody(m.FindFunc("big")))
	b.AffineForConst(0, n, 1, func(b *mlir.Builder, i *mlir.Value) {
		b.AffineForConst(0, n, 1, func(b *mlir.Builder, j *mlir.Value) {
			b.AffineForConst(0, n, 1, func(b *mlir.Builder, k *mlir.Value) {
				a := b.AffineLoad(args[0], i, k)
				x := b.AffineLoad(args[1], k, j)
				c := b.AffineLoad(args[2], i, j)
				b.AffineStore(b.AddF(c, b.MulF(a, x)), args[2], i, j)
			})
		})
	})
	b.Return()

	clone := func() *mlir.Module {
		m2, err := mlirparser.Parse(m.Print())
		if err != nil {
			t.Fatal(err)
		}
		return m2
	}
	ares, err := AdaptorFlow(clone(), "big", Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	cres, err := CxxFlow(clone(), "big", Directives{Pipeline: true, II: 1}, hls.DefaultTarget())
	if err != nil {
		t.Fatal(err)
	}
	if ares.Report.LatencyCycles != cres.Report.LatencyCycles {
		t.Errorf("flows disagree at scale: %d vs %d",
			ares.Report.LatencyCycles, cres.Report.LatencyCycles)
	}
	// Functional spot check: run the adaptor-flow IR on small random data.
	bufs := make([][]float32, 3)
	for i := range bufs {
		bufs[i] = make([]float32, n*n)
		for j := range bufs[i] {
			bufs[i][j] = float32((j+i)%7) / 7
		}
	}
	want := make([]float32, n*n)
	copy(want, bufs[2])
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for kk := 0; kk < n; kk++ {
				want[i*n+j] = want[i*n+j] + bufs[0][i*n+kk]*bufs[1][kk*n+j]
			}
		}
	}
	mems := memsFrom(bufs)
	if err := Execute(ares.LLVM, "big", mems); err != nil {
		t.Fatal(err)
	}
	got := mems[2].Float32Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scale kernel wrong at %d: %g vs %g", i, got[i], want[i])
		}
	}
}
