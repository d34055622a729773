package cfg

import (
	"math/bits"

	"treegion/internal/ir"
)

// BitSet is a word-packed register set over a function's dense register
// universe (ir.RegIndex), and the package's one register-set
// representation. All BitSets of one Liveness share a single uint64 slab,
// so computing liveness for a function costs a handful of allocations
// regardless of block count. Registers minted after the snapshot (scheduler
// renaming) fall outside the index and report not-present, which the
// renamer relies on: a fresh register is never live anywhere yet.
type BitSet struct {
	idx   *ir.RegIndex
	words []uint64
}

// Has reports membership.
func (s BitSet) Has(r ir.Reg) bool {
	k := s.idx.Of(r)
	return k >= 0 && s.words[k>>6]&(1<<(uint(k)&63)) != 0
}

// Count returns the number of registers in the set.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Liveness holds per-block live-in/live-out register sets, from the standard
// backward iterative dataflow. The treegion scheduler consults live-in sets
// of off-path blocks to decide when speculation requires renaming.
type Liveness struct {
	Regs    ir.RegIndex
	LiveIn  []BitSet // indexed by BlockID
	LiveOut []BitSet
}

// ComputeLiveness runs the dataflow over g until fixpoint. Sets are packed
// bitsets over the function's register universe at call time; the transfer
// function is in = use ∪ (out \ def), with guarded definitions not killing
// (a predicated-off op leaves the pre-existing value flowing through).
func ComputeLiveness(g *Graph) *Liveness {
	fn := g.Fn
	lv := &Liveness{Regs: fn.RegIndexTable()}
	idx := &lv.Regs
	n := len(fn.Blocks)
	nw := (idx.Len() + 63) / 64
	slab := make([]uint64, 4*n*nw)
	word := func(base, b int) []uint64 { return slab[base+b*nw : base+(b+1)*nw] }
	useBase, defBase, inBase, outBase := 0, n*nw, 2*n*nw, 3*n*nw

	set := func(w []uint64, k int) {
		if k >= 0 {
			w[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	has := func(w []uint64, k int) bool {
		return k >= 0 && w[k>>6]&(1<<(uint(k)&63)) != 0
	}

	for _, b := range fn.Blocks {
		u, d := word(useBase, int(b.ID)), word(defBase, int(b.ID))
		for _, op := range b.Ops {
			if op.Guarded() && !has(d, idx.Of(op.Guard)) {
				set(u, idx.Of(op.Guard))
			}
			for _, s := range op.Srcs {
				if k := idx.Of(s); k >= 0 && !has(d, k) {
					set(u, k)
				}
			}
			// A guarded definition may not execute, so it does not kill:
			// the pre-existing value can still flow through the block.
			if !op.Guarded() {
				for _, dst := range op.Dests {
					set(d, idx.Of(dst))
				}
			}
		}
	}

	changed := true
	for changed {
		changed = false
		// Iterate in reverse RPO for fast convergence of a backward problem.
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := int(g.RPO[i])
			out := word(outBase, b)
			for _, s := range g.Succs[b] {
				sin := word(inBase, int(s))
				for w := range out {
					if nv := out[w] | sin[w]; nv != out[w] {
						out[w] = nv
						changed = true
					}
				}
			}
			in, u, d := word(inBase, b), word(useBase, b), word(defBase, b)
			for w := range in {
				if nv := in[w] | u[w] | (out[w] &^ d[w]); nv != in[w] {
					in[w] = nv
					changed = true
				}
			}
		}
	}

	lv.LiveIn = make([]BitSet, n)
	lv.LiveOut = make([]BitSet, n)
	for b := 0; b < n; b++ {
		lv.LiveIn[b] = BitSet{idx: idx, words: word(inBase, b)}
		lv.LiveOut[b] = BitSet{idx: idx, words: word(outBase, b)}
	}
	return lv
}
