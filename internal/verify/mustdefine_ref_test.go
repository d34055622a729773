package verify

// The map-based must-define dataflow IR009 ran on before the word-packed
// rewrite, kept here as the differential witness: it tracks every register
// class with map sets, cloning a set per predecessor per iteration. The
// production pass must report exactly what this one reports, in the same
// order (see mustdefine_diff_test.go).

import (
	"treegion/internal/cfg"
	"treegion/internal/ir"
)

type refRegSet map[ir.Reg]struct{}

func (s refRegSet) add(r ir.Reg) {
	if r.IsValid() {
		s[r] = struct{}{}
	}
}

func (s refRegSet) has(r ir.Reg) bool {
	_, ok := s[r]
	return ok
}

func (s refRegSet) clone() refRegSet {
	c := make(refRegSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}

// checkFunctionRef is CheckFunction with the reference IR009 pass.
func checkFunctionRef(fn *ir.Function, ifConverted bool) []Diagnostic {
	c := &irChecker{fn: fn}
	c.structure()
	if !HasErrors(c.ds) && !ifConverted && !anyGuarded(fn) {
		c.mustDefineRef()
	}
	return c.ds
}

func (c *irChecker) mustDefineRef() {
	fn := c.fn
	g := cfg.New(fn)
	definedIn := make([]refRegSet, len(fn.Blocks))
	definedIn[fn.Entry] = refRegSet{}
	blockDefs := func(b *ir.Block, in refRegSet) refRegSet {
		out := in.clone()
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				out.add(d)
			}
		}
		return out
	}
	intersect := func(a, b refRegSet) refRegSet {
		out := refRegSet{}
		for r := range a {
			if b.has(r) {
				out.add(r)
			}
		}
		return out
	}
	subset := func(a, b refRegSet) bool {
		for r := range a {
			if !b.has(r) {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, bid := range g.RPO {
			in := definedIn[bid]
			if bid != fn.Entry {
				in = nil
				for _, p := range g.Preds[bid] {
					if definedIn[p] == nil {
						continue
					}
					out := blockDefs(fn.Block(p), definedIn[p])
					if in == nil {
						in = out
					} else {
						in = intersect(in, out)
					}
				}
				if in == nil {
					continue
				}
			}
			if definedIn[bid] == nil || len(in) != len(definedIn[bid]) || !subset(definedIn[bid], in) {
				definedIn[bid] = in
				changed = true
			}
		}
	}
	for _, b := range fn.Blocks {
		in := definedIn[b.ID]
		if in == nil {
			continue
		}
		defined := in.clone()
		for _, op := range b.Ops {
			for _, s := range op.Srcs {
				if s.IsValid() && !defined.has(s) &&
					(s.Class == ir.ClassPred || s.Class == ir.ClassBTR) {
					c.add("IR009", Error, b.ID, op.ID,
						"%v reads %v, which has no definition on some path from entry", op, s)
				}
			}
			for _, d := range op.Dests {
				defined.add(d)
			}
		}
	}
}
