package interp

import (
	"fmt"

	"treegion/internal/ir"
)

// maxCallDepth bounds the call-frame stack of RunIn. Generated programs are
// shallow (calldeep chains are depth 3); the bound exists so accidental
// recursion surfaces as a deterministic error on both sides of a semantic
// comparison instead of a stack overflow.
const maxCallDepth = 64

// nsOrig maps an op/block Orig ID into the run's shared namespace: IDs below
// ir.OrigStride are native to the executing function and get the frame's
// base added; IDs at or above the stride were already namespaced by the
// inliner and pass through unchanged. The root frame runs at base 0, so a
// call-free function's trace and oracle keys are bit-identical to a legacy
// Run.
func nsOrig(base, orig int) int {
	if orig < ir.OrigStride {
		return base + orig
	}
	return orig
}

// RunIn executes fn once under the oracle, resolving Call ops against prog:
// a resolved call pushes a fresh register frame (params bound from the call's
// sources), executes the callee's body over the shared memory and oracle,
// and copies the callee's Rets into the call's destinations. Opaque calls
// (empty Callee, or nil prog) stay no-ops, exactly as in Run.
//
// Callee blocks are recorded in the trace under the callee's Orig namespace
// (prog.OrigBase), and after a call returns the caller's block is recorded
// again — the "resumption record". An inliner splice makes the same sequence
// observable directly (spliced clones carry namespaced Origs; the
// continuation block keeps the host block's Orig), so the block traces of an
// original program and its inlined compilation are comparable element for
// element.
func RunIn(prog *ir.Program, fn *ir.Function, o Oracle, cfg Config) (*Trace, error) {
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	r := &runner{
		prog:     prog,
		o:        o,
		maxSteps: maxSteps,
		tr:       &Trace{},
		occ:      make(map[int]int),
		mem:      make(map[int64]int64),
	}
	err := r.frame(fn, 0, 0, &state{mem: r.mem})
	return r.tr, err
}

// runner is the shared state of one RunIn trip: the trace, the step budget,
// the branch-occurrence counters and the memory are global across call
// frames; registers are per-frame.
type runner struct {
	prog     *ir.Program
	o        Oracle
	maxSteps int
	tr       *Trace
	occ      map[int]int
	mem      map[int64]int64
}

func (r *runner) frame(fn *ir.Function, base, depth int, st *state) error {
	cur := fn.Entry
	idle := 0
	for {
		b := fn.Block(cur)
		if err := emptyCycle(fn, b, &idle); err != nil {
			return err
		}
		r.tr.Blocks = append(r.tr.Blocks, ir.BlockID(nsOrig(base, int(b.Orig))))
		next := b.FallThrough
		jumped := false
		done := false
		for _, op := range b.Ops {
			r.tr.Steps++
			if r.tr.Steps > r.maxSteps {
				return fmt.Errorf("interp: %s exceeded %d steps (runaway loop?)", fn.Name, r.maxSteps)
			}
			switch op.Opcode {
			case ir.Brct, ir.Brcf:
				key := nsOrig(base, op.Orig)
				n := r.occ[key]
				r.occ[key] = n + 1
				if r.o.Take(key, n, op.Prob) {
					next = op.Target
					jumped = true
				}
			case ir.Bru:
				next = op.Target
				jumped = true
			case ir.Ret:
				done = true
			case ir.St:
				if op.Guarded() && st.get(op.Guard) == 0 {
					break // squashed predicated store
				}
				addr := st.get(op.Srcs[0]) + op.Imm
				v := st.get(op.Srcs[1])
				st.mem[addr] = v
				r.tr.Stores = append(r.tr.Stores, StoreEvent{Addr: addr, Value: v})
			case ir.Call:
				callee := r.prog.Lookup(op.Callee)
				if callee == nil {
					st.exec(op) // opaque barrier, exactly as in Run
					break
				}
				if op.Guarded() && st.get(op.Guard) == 0 {
					break // squashed predicated call
				}
				if depth+1 > maxCallDepth {
					return fmt.Errorf("interp: %s: call depth exceeds %d (recursion?)", fn.Name, maxCallDepth)
				}
				if len(op.Srcs) != len(callee.Params) || len(op.Dests) != len(callee.Rets) {
					return fmt.Errorf("interp: %s: call @%s passes %d args/%d results, want %d/%d",
						fn.Name, op.Callee, len(op.Srcs), len(op.Dests),
						len(callee.Params), len(callee.Rets))
				}
				cst := &state{mem: st.mem} // a fresh register file per frame
				for i, p := range callee.Params {
					cst.set(p, st.get(op.Srcs[i]))
				}
				cbase := r.prog.OrigBase(r.prog.Index(op.Callee))
				if err := r.frame(callee, cbase, depth+1, cst); err != nil {
					return err
				}
				for i, d := range op.Dests {
					st.set(d, cst.get(callee.Rets[i]))
				}
				// Resumption record: control re-enters the caller's block.
				// The inliner's continuation split (which keeps the host
				// block's Orig) makes the same re-entry observable, so both
				// sides of a differential check log it.
				r.tr.Blocks = append(r.tr.Blocks, ir.BlockID(nsOrig(base, int(b.Orig))))
			default:
				st.exec(op)
			}
			if jumped || done {
				break
			}
		}
		if done {
			return nil
		}
		if next == ir.NoBlock {
			return fmt.Errorf("interp: %s: bb%d has no successor and no RET", fn.Name, cur)
		}
		cur = next
	}
}
