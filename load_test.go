package treegion

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// LoadIR profiles function i once with seed+i, and checks a program's call
// graph before profiling anything.
func TestLoadIRSeedsAndOrder(t *testing.T) {
	src, err := os.ReadFile("examples/tir/callpair.tir")
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	record := func(fn *Function, seed uint64, trips int) (*ProfileData, error) {
		calls = append(calls, fmt.Sprintf("%s@%d", fn.Name, seed))
		return ProfileFunction(fn, seed, trips)
	}
	prog, profs, err := LoadIR(string(src), 3, 10, false, record)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(calls, " "); got != "callpair@3 pair_mix@4" {
		t.Fatalf("profile calls %q, want callpair@3 pair_mix@4", got)
	}
	if prog.Name != "callpair" || len(prog.Funcs) != 2 || len(profs) != 2 {
		t.Fatalf("program %s with %d functions, %d profiles", prog.Name, len(prog.Funcs), len(profs))
	}

	// The caller alone does not resolve: with resolve set, that is an error
	// before any profiling; without it, one function loads as is.
	caller := string(src[:strings.Index(string(src), "func pair_mix")])
	calls = nil
	if _, _, err := LoadIR(caller, 1, 10, true, record); err == nil || len(calls) != 0 {
		t.Fatalf("unresolved caller: err %v after %d profiles", err, len(calls))
	}
	if _, _, err := LoadIR(caller, 1, 10, false, record); err != nil || len(calls) != 1 {
		t.Fatalf("single caller: err %v after %d profiles", err, len(calls))
	}

	// A profile failure names the function.
	spin := "func spin\nbb0:\n  r0 = movi 1\n  fallthrough @bb1\nbb1:\n  r0 = add r0, r0\n  fallthrough @bb1\n"
	_, _, err = LoadIR(spin, 1, 1, false, ProfileFunction)
	var pe *ProfileError
	if !errors.As(err, &pe) || pe.Fn != "spin" {
		t.Fatalf("err %v, want a ProfileError for spin", err)
	}
}
