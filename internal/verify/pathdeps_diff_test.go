package verify_test

// Differential check of the SC path walk against its map-based witness.
// Legal schedules report nothing on both sides, so the test also scrambles
// cycle assignments: every suite region's schedule is re-timed at random a
// few times (some nodes unscheduled), and the two walks must report the
// same SC002/SC004 diagnostics in the same order. Guarded code comes from
// if-converted compiles, whose guards the walk reads as sources.

import (
	"math/rand"
	"reflect"
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/eval"
	"treegion/internal/progen"
	"treegion/internal/verify"
)

func TestPathDependencesMatchReference(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		progs = progs[:2]
	}
	rng := rand.New(rand.NewSource(1998))
	configs := []eval.Config{eval.DefaultConfig(), eval.DefaultConfig()}
	configs[1].IfConvert = true
	reports := 0
	for _, prog := range progs {
		profs, err := eval.ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		for i, orig := range prog.Funcs {
			for _, c := range configs {
				fr, err := eval.CompileFunction(orig.Clone(), profs[i].Clone(), c)
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", prog.Name, orig.Name, err)
				}
				lv := cfg.ComputeLiveness(cfg.New(fr.Fn))
				for ri, s := range fr.Schedules {
					legal := s.Cycle
					for trial := 0; trial < 4; trial++ {
						if trial > 0 {
							s.Cycle = scramble(rng, legal)
						}
						got, want := verify.PathDependencesBoth(fr.Fn, fr.Regions[ri], s, lv)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s region %d trial %d: diagnostics differ\n got: %v\nwant: %v",
								prog.Name, orig.Name, ri, trial, got, want)
						}
						reports += len(want)
					}
					s.Cycle = legal
				}
			}
		}
	}
	if reports == 0 {
		t.Fatal("scrambled schedules produced no diagnostics; the test bites nothing")
	}
}

// scramble returns a copy of cycle with about a third of the nodes moved
// to a random cycle and one in twenty left unscheduled.
func scramble(rng *rand.Rand, cycle []int) []int {
	out := append([]int(nil), cycle...)
	span := 1
	for _, c := range cycle {
		span = max(span, c+2)
	}
	for i := range out {
		switch k := rng.Intn(60); {
		case k < 3:
			out[i] = -1
		case k < 20:
			out[i] = rng.Intn(span)
		}
	}
	return out
}
