package verify

import (
	"fmt"
	"slices"

	"treegion/internal/cfg"
	"treegion/internal/ir"
)

// IR well-formedness rules. These independently re-derive everything
// ir.Function.Validate enforces (and more: operand shapes, def-before-use)
// and report every violation instead of stopping at the first.
//
//	IR001  missing or out-of-range entry block
//	IR002  block ID does not match its index
//	IR003  branch, pbr or fallthrough target out of range
//	IR004  misplaced terminator (op after branch, BRU not last,
//	       fallthrough after BRU)
//	IR005  RET in a block with successors
//	IR006  duplicate successor edge
//	IR007  duplicate op ID
//	IR008  malformed operands for the opcode (counts, register classes)
//	IR009  a predicate or branch-target register is read on some entry
//	       path before any definition (data registers are exempt: the
//	       synthetic benchmarks treat entry-live GPRs/FPRs as implicit
//	       zero-initialized parameters, which the interpreter honours)

// CheckFunction runs the IR rules over fn. ifConverted relaxes IR009
// (guarded definitions do not kill, so path-sensitive def-before-use over
// predicated code would report spurious entry-live registers).
func CheckFunction(fn *ir.Function, ifConverted bool) []Diagnostic {
	c := &irChecker{fn: fn}
	c.structure()
	// Def-before-use needs an indexable CFG; skip it when the structure is
	// already broken or when predication blurs kills.
	if !HasErrors(c.ds) && !ifConverted && !anyGuarded(fn) {
		c.mustDefine()
	}
	return c.ds
}

type irChecker struct {
	fn *ir.Function
	ds []Diagnostic
}

func (c *irChecker) add(rule string, sev Severity, b ir.BlockID, op int, format string, args ...interface{}) {
	c.ds = append(c.ds, Diagnostic{
		Rule: rule, Severity: sev, Fn: c.fn.Name, Block: b, Op: op,
		Message: fmt.Sprintf(format, args...),
	})
}

func anyGuarded(fn *ir.Function) bool {
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			if op.Guarded() {
				return true
			}
		}
	}
	return false
}

func (c *irChecker) structure() {
	fn := c.fn
	if fn.Entry == ir.NoBlock || int(fn.Entry) >= len(fn.Blocks) || fn.Entry < 0 {
		c.add("IR001", Error, ir.NoBlock, -1, "entry bb%d out of range (%d blocks)", fn.Entry, len(fn.Blocks))
	}
	inRange := func(b ir.BlockID) bool { return b >= 0 && int(b) < len(fn.Blocks) }
	seenOp := make(map[int]bool)
	for i, b := range fn.Blocks {
		if b.ID != ir.BlockID(i) {
			c.add("IR002", Error, b.ID, -1, "block at index %d has ID %d", i, b.ID)
		}
		sawBranch := false
		sawBru := false
		for j, op := range b.Ops {
			if seenOp[op.ID] {
				c.add("IR007", Error, b.ID, op.ID, "duplicate op ID %d", op.ID)
			}
			seenOp[op.ID] = true
			if op.IsBranch() || op.Opcode == ir.Pbr {
				if !inRange(op.Target) {
					c.add("IR003", Error, b.ID, op.ID, "%s targets missing bb%d", op.Opcode, op.Target)
				}
			}
			switch {
			case op.IsBranch():
				if sawBru {
					c.add("IR004", Error, b.ID, op.ID, "branch after BRU")
				}
				sawBranch = true
				if op.Opcode == ir.Bru {
					sawBru = true
					if j != len(b.Ops)-1 {
						c.add("IR004", Error, b.ID, op.ID, "BRU is not the last op of its block")
					}
				}
			case sawBranch && op.Opcode != ir.Nop:
				c.add("IR004", Error, b.ID, op.ID, "non-branch op %v after a branch", op)
			}
			if op.Opcode == ir.Ret && (b.FallThrough != ir.NoBlock || len(b.Branches()) > 0) {
				c.add("IR005", Error, b.ID, op.ID, "RET in a block with successors")
			}
			c.operands(b, op)
		}
		if b.FallThrough != ir.NoBlock {
			if !inRange(b.FallThrough) {
				c.add("IR003", Error, b.ID, -1, "fallthrough targets missing bb%d", b.FallThrough)
			}
			if sawBru {
				c.add("IR004", Error, b.ID, -1, "fallthrough after BRU")
			}
		}
		seen := make(map[ir.BlockID]bool)
		for _, s := range b.Succs() {
			if seen[s] {
				c.add("IR006", Error, b.ID, -1, "duplicate successor bb%d", s)
			}
			seen[s] = true
		}
	}
}

// operands checks the operand shape of one op (IR008): destination/source
// counts and register classes per opcode, plus guard-class sanity.
func (c *irChecker) operands(b *ir.Block, op *ir.Op) {
	bad := func(format string, args ...interface{}) {
		c.add("IR008", Error, b.ID, op.ID, "%s: %s", op.Opcode, fmt.Sprintf(format, args...))
	}
	if op.Guard.IsValid() && op.Guard.Class != ir.ClassPred {
		bad("guard %v is not a predicate", op.Guard)
	}
	wantShape := func(dests, srcs int) bool {
		ok := true
		if len(op.Dests) != dests {
			bad("needs %d destination(s), has %d", dests, len(op.Dests))
			ok = false
		}
		if len(op.Srcs) != srcs {
			bad("needs %d source(s), has %d", srcs, len(op.Srcs))
			ok = false
		}
		return ok
	}
	allValid := func(rs []ir.Reg, what string) {
		for _, r := range rs {
			if !r.IsValid() {
				bad("invalid %s register", what)
			}
		}
	}
	switch op.Opcode {
	case ir.Nop:
		// No constraints: padding.
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
		ir.FAdd, ir.FMul, ir.FDiv:
		if wantShape(1, 2) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "source")
		}
	case ir.MovI:
		if wantShape(1, 0) {
			allValid(op.Dests, "destination")
		}
	case ir.Mov, ir.Copy:
		if wantShape(1, 1) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "source")
		}
	case ir.Ld:
		if wantShape(1, 1) {
			allValid(op.Dests, "destination")
			allValid(op.Srcs, "address")
		}
	case ir.St:
		if wantShape(0, 2) {
			allValid(op.Srcs, "source")
		}
	case ir.Cmpp:
		if len(op.Dests) != 1 && len(op.Dests) != 2 {
			bad("needs 1 or 2 destinations, has %d", len(op.Dests))
		}
		for _, d := range op.Dests {
			if d.IsValid() && d.Class != ir.ClassPred {
				bad("destination %v is not a predicate", d)
			}
		}
		if len(op.Srcs) != 2 {
			bad("needs 2 sources, has %d", len(op.Srcs))
		}
		allValid(op.Srcs, "source")
	case ir.Pbr:
		if wantShape(1, 0) {
			if d := op.Dests[0]; d.IsValid() && d.Class != ir.ClassBTR {
				bad("destination %v is not a branch-target register", d)
			}
		}
	case ir.Brct, ir.Brcf:
		if len(op.Dests) != 0 {
			bad("takes no destinations, has %d", len(op.Dests))
		}
		if len(op.Srcs) != 2 {
			bad("needs 2 sources (btr, pred), has %d", len(op.Srcs))
			break
		}
		// The btr slot may be empty (decoded target form); the predicate
		// must be a real predicate register.
		if b := op.Srcs[0]; b.IsValid() && b.Class != ir.ClassBTR {
			bad("branch-target source %v is not a BTR", b)
		}
		if p := op.Srcs[1]; !p.IsValid() || p.Class != ir.ClassPred {
			bad("predicate source %v is not a predicate", p)
		}
	case ir.Bru:
		if len(op.Dests) != 0 {
			bad("takes no destinations, has %d", len(op.Dests))
		}
	case ir.Call, ir.Ret:
		// Opaque; no operand constraints.
	}
}

// mustDefine is a forward must-define dataflow: a register counts as
// defined at a use only if every path from entry to the use writes it
// first. Only predicate and branch-target reads are reported: those steer
// control, while maybe-undefined data registers are the synthetic suite's
// implicit zero-initialized parameters (the interpreter zero-fills them).
//
// Must-definedness is independent per register (the meet is a per-register
// AND), so tracking only the p and b classes is exact: the data classes
// could never change a reported verdict. The two classes get a dense index
// of their own (p registers first, then b), and every set is a row of one
// word-packed slab.
func (c *irChecker) mustDefine() {
	fn := c.fn
	g := cfg.New(fn)
	var np, nb int // per-class register counts: highest number + 1
	count := func(r ir.Reg) {
		switch r.Class {
		case ir.ClassPred:
			np = max(np, r.Num+1)
		case ir.ClassBTR:
			nb = max(nb, r.Num+1)
		}
	}
	for _, b := range fn.Blocks {
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				count(d)
			}
			for _, s := range op.Srcs {
				count(s)
			}
		}
	}
	idx := func(r ir.Reg) int {
		switch r.Class {
		case ir.ClassPred:
			return r.Num
		case ir.ClassBTR:
			return np + r.Num
		}
		return -1
	}
	has := func(w []uint64, k int) bool { return w[k>>6]&(1<<(uint(k)&63)) != 0 }
	set := func(w []uint64, k int) {
		if k >= 0 {
			w[k>>6] |= 1 << (uint(k) & 63)
		}
	}

	// One slab: a gen row (every p/b register the block writes) and an in
	// row (written on every path from entry) per block, plus a scratch row
	// for the meet. known[b] false stands for "every register" — no
	// processed predecessor has constrained b yet.
	n := len(fn.Blocks)
	nw := (np + nb + 63) / 64
	slab := make([]uint64, (2*n+1)*nw)
	row := func(i int) []uint64 { return slab[i*nw : (i+1)*nw] }
	gen := func(b ir.BlockID) []uint64 { return row(int(b)) }
	in := func(b ir.BlockID) []uint64 { return row(n + int(b)) }
	meet := row(2 * n)
	for _, b := range fn.Blocks {
		w := gen(b.ID)
		for _, op := range b.Ops {
			for _, d := range op.Dests {
				set(w, idx(d))
			}
		}
	}
	known := make([]bool, n)
	known[fn.Entry] = true
	for changed := true; changed; {
		changed = false
		for _, bid := range g.RPO {
			if bid == fn.Entry {
				continue
			}
			constrained := false
			for _, p := range g.Preds[bid] {
				if !known[p] {
					continue // unprocessed pred: no constraint yet
				}
				pin, pgen := in(p), gen(p)
				if !constrained {
					for i := range meet {
						meet[i] = pin[i] | pgen[i]
					}
					constrained = true
				} else {
					for i := range meet {
						meet[i] &= pin[i] | pgen[i]
					}
				}
			}
			if !constrained {
				continue
			}
			cur := in(bid)
			if !known[bid] || !slices.Equal(cur, meet) {
				copy(cur, meet)
				known[bid] = true
				changed = true
			}
		}
	}
	defined := make([]uint64, nw)
	for _, b := range fn.Blocks {
		if !known[b.ID] {
			continue // unreachable: never executes
		}
		copy(defined, in(b.ID))
		for _, op := range b.Ops {
			for _, s := range op.Srcs {
				if k := idx(s); k >= 0 && !has(defined, k) {
					c.add("IR009", Error, b.ID, op.ID,
						"%v reads %v, which has no definition on some path from entry", op, s)
				}
			}
			for _, d := range op.Dests {
				set(defined, idx(d))
			}
		}
	}
}
