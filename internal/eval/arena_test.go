package eval

import (
	"slices"
	"sort"
	"testing"

	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/progen"
)

// TestArenaReuseMatchesFresh compiles every suite function plus one stress2
// giant on one shared Arena, largest first, so small functions run on
// buffers that large ones grew and dirtied. Every result must equal a
// compile of the same function on a fresh arena: reuse may change where
// the scratch lives, never what is computed.
func TestArenaReuseMatchesFresh(t *testing.T) {
	progs, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := progen.PresetByName("stress2")
	if !ok {
		t.Fatal("stress2 preset not registered")
	}
	giant, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	giant.Funcs = giant.Funcs[:1]
	giant.Preset.NumFuncs = 1
	progs = append(progs, giant)

	type input struct {
		fn   *ir.Function
		prof *profile.Data
	}
	var ins []input
	for _, prog := range progs {
		profs, err := ProfileProgram(prog)
		if err != nil {
			t.Fatalf("%s: profile: %v", prog.Name, err)
		}
		for i, fn := range prog.Funcs {
			ins = append(ins, input{fn, profs[i]})
		}
	}
	sort.SliceStable(ins, func(i, j int) bool { return ins[i].fn.NumOps() > ins[j].fn.NumOps() })

	td := DefaultConfig()
	td.Kind = TreegionTD
	td.DominatorParallelism = true
	noRename := DefaultConfig()
	noRename.Rename = false
	configs := []Config{td, DefaultConfig(), noRename}
	if testing.Short() {
		// Dominator merging plus renaming touches the most builder tables.
		configs = configs[:1]
	}
	for _, c := range configs {
		shared := NewArena()
		for _, in := range ins {
			got, err := CompileFunctionArena(in.fn.Clone(), in.prof.Clone(), c, shared)
			if err != nil {
				t.Fatalf("%s %s: shared arena: %v", c.Kind, in.fn.Name, err)
			}
			want, err := CompileFunctionArena(in.fn.Clone(), in.prof.Clone(), c, NewArena())
			if err != nil {
				t.Fatalf("%s %s: fresh arena: %v", c.Kind, in.fn.Name, err)
			}
			if got.Time != want.Time || len(got.Schedules) != len(want.Schedules) {
				t.Fatalf("%s %s: shared arena time %v over %d regions, fresh %v over %d",
					c.Kind, in.fn.Name, got.Time, len(got.Schedules), want.Time, len(want.Schedules))
			}
			for r, s := range got.Schedules {
				w := want.Schedules[r]
				if s.Length != w.Length || !slices.Equal(s.Cycle, w.Cycle) {
					t.Fatalf("%s %s region %d: shared arena length %d, fresh %d (or cycles differ)",
						c.Kind, in.fn.Name, r, s.Length, w.Length)
				}
			}
		}
	}
}
