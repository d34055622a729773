package irtext

import (
	"os"
	"path/filepath"
	"testing"

	"treegion/internal/interp"
	"treegion/internal/verify"
)

// FuzzParse drives arbitrary text through the parser, the only door
// untrusted input comes in by (treegiond's /v1/compile, treegionc,
// treegion-lint). Whatever parses must
//
//   - print back to text that parses to the same print (a fixed point), and
//   - survive the IR verifier and a step-bounded interpretation without
//     panicking.
//
// Text that only the unchecked parser accepts (structurally broken
// functions, the verifier's malformed-IR fixtures) must still round-trip
// and survive the verifier. The seed corpus is every example and test
// program; testdata/fuzz/FuzzParse holds inputs that once crashed the
// parser or exhausted memory, so plain `go test` replays them.
func FuzzParse(f *testing.F) {
	for _, pat := range []string{"../../examples/tir/*.tir", "../../testdata/*.tir", "../../testdata/verify/*.tir"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Add(sample)
	f.Fuzz(func(t *testing.T, src string) {
		if prog, err := ParseProgram(src); err == nil {
			text := PrintProgram(prog)
			back, err := ParseProgram(text)
			if err != nil {
				t.Fatalf("printed program does not parse: %v\n%s", err, text)
			}
			if again := PrintProgram(back); again != text {
				t.Fatalf("print is not a fixed point:\n%s\n---\n%s", text, again)
			}
			for _, fn := range prog.Funcs {
				verify.CheckFunction(fn, false)
				cfg := interp.Config{MaxSteps: 10000}
				interp.Run(fn, interp.NewOracle(1), cfg)
				interp.RunIn(prog, fn, interp.NewOracle(7), cfg)
			}
		}
		fn, err := ParseUnchecked(src)
		if err != nil {
			return
		}
		text := Print(fn)
		back, err := ParseUnchecked(text)
		if err != nil {
			t.Fatalf("printed function does not parse: %v\n%s", err, text)
		}
		if again := Print(back); again != text {
			t.Fatalf("print is not a fixed point:\n%s\n---\n%s", text, again)
		}
		verify.CheckFunction(fn, false)
		verify.CheckFunction(fn, true)
		if fn.Validate() == nil {
			interp.Run(fn, interp.NewOracle(1), interp.Config{MaxSteps: 10000})
		}
	})
}
