package verify_test

// Differential check of the word-packed IR009 pass against the map-based
// reference it replaced: CheckFunction must return the same diagnostics
// (rule, block, op, message, order) on every suite function before and
// after compilation, on every fixture and example program, on variants of
// all of those with predicate and branch-target definitions knocked out, and
// on hand-built CFG shapes the dataflow has to get right.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/irtext"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

func diffIR009(t *testing.T, what string, fn *ir.Function) {
	t.Helper()
	for _, ifc := range []bool{false, true} {
		got := verify.CheckFunction(fn, ifc)
		want := verify.CheckFunctionRef(fn, ifc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (ifConverted=%v): diagnostics differ\n got: %v\nwant: %v", what, ifc, got, want)
		}
	}
}

// knockOut returns copies of fn in which one in every `stride` p/b-defining
// ops (starting at phase) is turned into a NOP, so reads of its
// destinations become undefined on some or all paths.
func knockOut(fn *ir.Function, stride int) []*ir.Function {
	var out []*ir.Function
	for phase := 0; phase < stride; phase++ {
		c := fn.Clone()
		k := 0
		for _, b := range c.Blocks {
			for _, op := range b.Ops {
				if op.Opcode != ir.Cmpp && op.Opcode != ir.Pbr {
					continue
				}
				if k%stride == phase {
					op.Opcode, op.Dests, op.Srcs = ir.Nop, nil, nil
				}
				k++
			}
		}
		out = append(out, c)
	}
	return out
}

func diffWithKnockouts(t *testing.T, what string, fn *ir.Function) {
	t.Helper()
	diffIR009(t, what, fn)
	for i, v := range knockOut(fn, 3) {
		diffIR009(t, what+"/knockout"+string(rune('0'+i)), v)
	}
}

func TestMustDefineMatchesReferenceSuite(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []eval.RegionKind{eval.Treegion, eval.TreegionTD}
	if testing.Short() {
		progs = progs[:2]
	}
	for _, prog := range progs {
		profs, err := eval.ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		for i, orig := range prog.Funcs {
			diffWithKnockouts(t, prog.Name+"/"+orig.Name, orig)
			for _, kind := range kinds {
				c := eval.DefaultConfig()
				c.Kind = kind
				fr, err := eval.CompileFunction(orig.Clone(), profs[i].Clone(), c)
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", prog.Name, orig.Name, err)
				}
				diffWithKnockouts(t, prog.Name+"/"+orig.Name+"/compiled-"+kind.String(), fr.Fn)
			}
		}
	}
}

func TestMustDefineMatchesReferenceFiles(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../testdata/verify/*.tir", "../../examples/tir/*.tir", "../../testdata/*.tir"} {
		ps, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) < 10 {
		t.Fatalf("found only %d programs", len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var funcs []*ir.Function
		if prog, err := irtext.ParseProgram(string(src)); err == nil {
			funcs = prog.Funcs
		} else if fn, err := irtext.ParseUnchecked(string(src)); err == nil {
			funcs = []*ir.Function{fn} // malformed-IR fixtures
		} else {
			t.Fatalf("%s: %v", p, err)
		}
		for _, fn := range funcs {
			diffWithKnockouts(t, filepath.Base(p)+"/"+fn.Name, fn)
		}
	}
}

func TestMustDefineMatchesReferenceShapes(t *testing.T) {
	cases := []struct {
		name, src string
		ir009     int // reports the reference makes; pins that the case bites
	}{
		{"unreachable block", `func f
bb0:
  p0 = cmpp gt r1, r2
  ret
bb1:
  brct _, p5, @bb0 #0.5
  fallthrough @bb2
bb2:
  ret
`, 0},
		{"loop back edge", `func f
bb0:
  r1 = movi 0
  fallthrough @bb1
bb1:
  brct _, p1, @bb3 #0.5
  fallthrough @bb2
bb2:
  p1 = cmpp lt r1, r2
  bru @bb1
bb3:
  ret
`, 1},
		{"loop defines before use", `func f
bb0:
  p1 = cmpp lt r1, r2
  fallthrough @bb1
bb1:
  p1 = cmpp gt r1, r2
  brct _, p1, @bb2 #0.5
  fallthrough @bb1
bb2:
  ret
`, 0},
		{"predicate on one arm only", `func f
bb0:
  p0 = cmpp gt r1, r2
  brct _, p0, @bb2 #0.5
  fallthrough @bb1
bb1:
  p1 = cmpp lt r1, r2
  bru @bb3
bb2:
  bru @bb3
bb3:
  brct _, p1, @bb4 #0.5
  fallthrough @bb5
bb4:
  ret
bb5:
  ret
`, 1},
		{"predicate on both arms", `func f
bb0:
  p0 = cmpp gt r1, r2
  brct _, p0, @bb2 #0.5
  fallthrough @bb1
bb1:
  p1 = cmpp lt r1, r2
  bru @bb3
bb2:
  p1 = cmpp ge r1, r2
  bru @bb3
bb3:
  brct _, p1, @bb4 #0.5
  fallthrough @bb5
bb4:
  ret
bb5:
  ret
`, 0},
		{"btr read before pbr", `func f
bb0:
  p0 = cmpp gt r1, r2
  brct b3, p0, @bb1 #0.5
  fallthrough @bb2
bb1:
  b3 = pbr @bb2
  ret
bb2:
  ret
`, 1},
		{"btr defined by pbr", `func f
bb0:
  b3 = pbr @bb1
  p0 = cmpp gt r1, r2
  brct b3, p0, @bb1 #0.5
  fallthrough @bb2
bb1:
  ret
bb2:
  ret
`, 0},
		{"entry back edge", `func f
bb0:
  brct _, p2, @bb2 #0.5
  fallthrough @bb1
bb1:
  p2 = cmpp eq r1, r2
  bru @bb0
bb2:
  ret
`, 1},
	}
	for _, c := range cases {
		fn, err := irtext.ParseUnchecked(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		diffIR009(t, c.name, fn)
		if n := len(verify.CheckFunctionRef(fn, false)); n != c.ir009 {
			t.Errorf("%s: reference reports %d diagnostics, want %d: %v", c.name, n, c.ir009, verify.CheckFunctionRef(fn, false))
		}
	}
}
