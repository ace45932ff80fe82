package parser_test

import (
	"testing"

	"repro/internal/kgen"
	"repro/internal/mlir/parser"
	"repro/internal/polybench"
)

// FuzzParseRoundTrip drives Parse with arbitrary input. Inputs the parser
// rejects must produce an error, never a panic — hls-serve parses client
// MLIR with it; inputs it accepts must print, re-parse, and print
// identically (print is the parser's inverse on its own output).
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range parser.Fixtures() {
		f.Add(s)
	}
	for _, k := range polybench.All() {
		s, err := k.SizeOf("MINI")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(k.Build(s).Print())
	}
	for _, k := range kgen.CorpusKernels() {
		f.Add(k.Build().Print())
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := parser.Parse(src)
		if err != nil {
			return
		}
		text := m.Print()
		m2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n--- printed\n%s\n--- input\n%q", err, text, src)
		}
		if text2 := m2.Print(); text2 != text {
			t.Fatalf("print is not a fixpoint after one round trip:\n--- first\n%s\n--- second\n%s", text, text2)
		}
	})
}
