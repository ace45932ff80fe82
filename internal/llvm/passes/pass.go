package passes

import "repro/internal/llvm"

// Pass is one named LLVM-level transformation, applied per function.
type Pass struct {
	Name string
	Run  func(f *llvm.Function)
}

// Standard passes, wrapping this package's transformations.
var (
	PassMem2Reg        = Pass{Name: "mem2reg", Run: Mem2Reg}
	PassSimplifyCFG    = Pass{Name: "simplifycfg", Run: SimplifyCFG}
	PassConstFold      = Pass{Name: "constfold", Run: ConstFold}
	PassStrengthReduce = Pass{Name: "strength-reduce", Run: StrengthReduce}
	PassCSE            = Pass{Name: "cse", Run: CSE}
	PassDCE            = Pass{Name: "dce", Run: DCE}
)

// Apply runs the pass over every defined function of m.
func (p Pass) Apply(m *llvm.Module) {
	for _, f := range m.Funcs {
		if !f.IsDecl {
			p.Run(f)
		}
	}
}
