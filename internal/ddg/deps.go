package ddg

import (
	"treegion/internal/ir"
	"treegion/internal/machine"
)

// dataEdges walks the region tree and adds register and memory dependence
// edges. Reaching definitions, readers-since-definition, and memory state
// are scoped to the current root-to-leaf path with an undo log, so sibling
// paths never see each other's definitions — only one of them executes, and
// cross-path write conflicts were already resolved by renaming (or are
// non-speculatable ops guarded by disjoint predicates).
//
// The state lives in per-register stacks over the function's dense register
// index: the reaching definitions of r are defs[r][defBase[r]:]. A killing
// definition raises the base (hiding everything below), a joining one just
// pushes, and the undo log records the previous base/length pair so block
// exit restores the parent path's view by truncation — no maps, no closure
// captures, and stack capacity is reused across the whole walk.
func (b *builder) dataEdges() {
	regs := b.g.Fn.RegIndexTable()
	w := &walker{b: b, regs: &regs, nodes: b.g.Nodes}
	b.prepWalker(w, regs.Len())
	w.walk(b.g.Region.Root)
	b.sc.releaseWalker(w)
}

// prepWalker sizes every walker stack from the region's ops instead of
// letting appends grow them: one counting pass over the nodes bounds each
// register's def stack by its total destination occurrences, its reader
// stack by its total source occurrences, and the undo log by the total
// event count — a path can only push what the whole region contains, so the
// bounds hold for every root-to-leaf walk. The per-register stacks are then
// carved from one index slab with those caps, which turns the walk's
// hottest allocation sites (one growth chain per touched register, per
// region) into zero allocations once the Scratch is warm.
// The stacks hold node indices, not pointers: the slab stays invisible to
// the garbage collector, which matters at suite scale (a pointer slab this
// size showed up as scan time exceeding the allocation savings).
func (b *builder) prepWalker(w *walker, nr int) {
	sc := b.sc
	w.defs = grow(sc.defs, nr)
	w.readers = grow(sc.readers, nr)
	w.defBase = growClear(sc.defBase, nr)
	w.readerBase = growClear(sc.readerBase, nr)
	defCnt := growClear(sc.defCnt, nr)
	readerCnt := growClear(sc.readerCnt, nr)
	undoCap, loadCap := 0, 0
	for _, nd := range b.g.Nodes {
		op := nd.Op
		for _, s := range op.Srcs {
			if s.IsValid() {
				if r := int32(w.regs.Of(s)); r >= 0 {
					readerCnt[r]++
					undoCap++
				}
			}
		}
		if op.Guarded() {
			if s := op.Guard; s.IsValid() {
				if r := int32(w.regs.Of(s)); r >= 0 {
					readerCnt[r]++
					undoCap++
				}
			}
		}
		switch op.Opcode {
		case ir.Ld:
			loadCap++
			undoCap++
		case ir.St, ir.Call:
			undoCap++
		}
		for _, d := range op.Dests {
			if d.IsValid() {
				if r := int32(w.regs.Of(d)); r >= 0 {
					defCnt[r]++
					undoCap++
				}
			}
		}
	}
	total := 0
	for r := 0; r < nr; r++ {
		total += int(defCnt[r]) + int(readerCnt[r])
	}
	slab := grow(sc.walkSlab, total)
	off := 0
	for r := 0; r < nr; r++ {
		d, rd := int(defCnt[r]), int(readerCnt[r])
		w.defs[r] = slab[off : off : off+d]
		off += d
		w.readers[r] = slab[off : off : off+rd]
		off += rd
	}
	sc.walkSlab = slab
	sc.defCnt, sc.readerCnt = defCnt, readerCnt
	w.undo = grow(sc.undo, undoCap)[:0]
	w.loads = grow(sc.loads, loadCap)[:0]
}

// walker undo-record kinds.
const (
	undoSetDef uint8 = iota // a,b = def base,len; c,d = reader base,len
	undoAddDef              // a = def len
	undoReader              // a = reader len
	undoStore               // a,b = loads base,len; store = previous lastStore
	undoLoad                // a = loads len
)

type undoRec struct {
	kind       uint8
	reg        int32
	a, b, c, d int32
	store      *Node
}

type walker struct {
	b     *builder
	regs  *ir.RegIndex
	nodes []*Node // g.Nodes — the stacks below hold indices into it

	defs       [][]int32 // per dense reg: definition stack (node indices)
	defBase    []int32   // start of the *reaching* definitions within defs
	readers    [][]int32 // per dense reg: readers since the reaching defs
	readerBase []int32

	lastStore *Node
	loads     []int32 // loads since the last store (node indices)
	loadsBase int32

	undo []undoRec
}

func (w *walker) walk(bid ir.BlockID) {
	mark := len(w.undo)
	for _, n := range w.b.blockNodes(bid) {
		w.visit(n)
	}
	for _, c := range w.b.g.Region.Children(bid) {
		w.walk(c)
	}
	// Roll back this block's effects before the caller visits a sibling.
	for len(w.undo) > mark {
		u := w.undo[len(w.undo)-1]
		w.undo = w.undo[:len(w.undo)-1]
		switch u.kind {
		case undoSetDef:
			w.defBase[u.reg] = u.a
			w.defs[u.reg] = w.defs[u.reg][:u.b]
			w.readerBase[u.reg] = u.c
			w.readers[u.reg] = w.readers[u.reg][:u.d]
		case undoAddDef:
			w.defs[u.reg] = w.defs[u.reg][:u.a]
		case undoReader:
			w.readers[u.reg] = w.readers[u.reg][:u.a]
		case undoStore:
			w.loadsBase = u.a
			w.loads = w.loads[:u.b]
			w.lastStore = u.store
		case undoLoad:
			w.loads = w.loads[:u.a]
		}
	}
}

// setDef records an unguarded (killing) definition.
func (w *walker) setDef(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{
		kind: undoSetDef, reg: r,
		a: w.defBase[r], b: int32(len(w.defs[r])),
		c: w.readerBase[r], d: int32(len(w.readers[r])),
	})
	w.defBase[r] = int32(len(w.defs[r]))
	w.defs[r] = append(w.defs[r], int32(n.Index))
	w.readerBase[r] = int32(len(w.readers[r]))
}

// addDef records a guarded (non-killing) definition: previous definitions
// still reach, and their readers stay visible.
func (w *walker) addDef(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoAddDef, reg: r, a: int32(len(w.defs[r]))})
	w.defs[r] = append(w.defs[r], int32(n.Index))
}

func (w *walker) addReader(r int32, n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoReader, reg: r, a: int32(len(w.readers[r]))})
	w.readers[r] = append(w.readers[r], int32(n.Index))
}

func (w *walker) setStore(n *Node) {
	w.undo = append(w.undo, undoRec{
		kind: undoStore,
		a:    w.loadsBase, b: int32(len(w.loads)),
		store: w.lastStore,
	})
	w.lastStore = n
	w.loadsBase = int32(len(w.loads))
}

func (w *walker) addLoad(n *Node) {
	w.undo = append(w.undo, undoRec{kind: undoLoad, a: int32(len(w.loads))})
	w.loads = append(w.loads, int32(n.Index))
}

// visitSrc adds flow dependences from the reaching definitions of s and
// books n as a reader of s.
func (w *walker) visitSrc(s ir.Reg, n *Node) {
	if !s.IsValid() {
		return
	}
	r := int32(w.regs.Of(s))
	if r < 0 {
		return
	}
	for _, di := range w.defs[r][w.defBase[r]:] {
		def := w.nodes[di]
		w.b.addEdge(def, n, machine.Latency(def.Op.Opcode), EdgeData)
	}
	w.addReader(r, n)
}

func (w *walker) visit(n *Node) {
	op := n.Op
	// Flow dependences and reader bookkeeping; the guard predicate is a
	// source like any other.
	for _, s := range op.Srcs {
		w.visitSrc(s, n)
	}
	if op.Guarded() {
		w.visitSrc(op.Guard, n)
	}
	// Memory ordering: serialized, with PlayDoh same-cycle allowance.
	switch op.Opcode {
	case ir.Ld:
		if w.lastStore != nil {
			w.b.addEdge(w.lastStore, n, 0, EdgeMem)
		}
		w.addLoad(n)
	case ir.St, ir.Call:
		if w.lastStore != nil {
			w.b.addEdge(w.lastStore, n, 0, EdgeMem)
		}
		for _, li := range w.loads[w.loadsBase:] {
			w.b.addEdge(w.nodes[li], n, 0, EdgeMem)
		}
		w.setStore(n)
	}
	// Anti and output dependences, then the new definitions.
	for _, d := range op.Dests {
		if !d.IsValid() {
			continue
		}
		r := int32(w.regs.Of(d))
		if r < 0 {
			continue
		}
		for _, ri := range w.readers[r][w.readerBase[r]:] {
			w.b.addEdge(w.nodes[ri], n, 0, EdgeData)
		}
		for _, di := range w.defs[r][w.defBase[r]:] {
			w.b.addEdge(w.nodes[di], n, 1, EdgeData)
		}
	}
	for _, d := range op.Dests {
		if !d.IsValid() {
			continue
		}
		r := int32(w.regs.Of(d))
		if r < 0 {
			continue
		}
		if op.Guarded() {
			w.addDef(r, n)
		} else {
			w.setDef(r, n)
		}
	}
}

// controlEdges adds the edges that encode branch semantics (see the package
// comment's table).
//
// Ops may also sink below branches (downward code motion): an op is ordered
// before an exit branch only when the exit actually needs it — the op is
// non-speculatable (it must execute whenever its block does), or one of its
// destinations is live into the exit's target. Ops dead at an exit float
// past it into the surviving paths.
func (b *builder) controlEdges() {
	r := b.g.Region
	for _, bid := range r.Blocks {
		body, terms := b.bodyNodes(bid), b.termNodes(bid)
		// Non-speculatable ops issue no later than their block's
		// terminators (a store executes before control can leave). A block
		// with no terminators of its own falls through to a single child,
		// so the constraint attaches to the nearest descendant terminators
		// instead. Multiway arms keep their priority order.
		downTerms := terms
		if len(downTerms) == 0 {
			downTerms = b.nearestDescendantTerms(bid)
		}
		for _, n := range body {
			if !n.Spec {
				for _, t := range downTerms {
					b.addEdge(n, t, 0, EdgeControl)
				}
			}
		}
		for i := 0; i+1 < len(terms); i++ {
			b.addEdge(terms[i], terms[i+1], 0, EdgeControl)
		}
		// Control resolution: entering this block is decided by the branch
		// that targets it (for an arm entry, later arms of the parent never
		// execute on this path) or, for a fallthrough entry, by the
		// parent's last branch. Terminators are ordered at it; ops that
		// cannot speculate issue strictly after it.
		if res := b.resolver(bid); res != nil {
			for _, t := range terms {
				b.addEdge(res, t, 0, EdgeControl)
			}
			for _, n := range body {
				if n.Spec {
					continue // speculation: free to hoist
				}
				b.addEdge(res, n, 1, EdgeControl)
			}
		}
	}
	b.liveExitEdges()
}

// resolver returns the branch node whose resolution admits control into
// bid: the parent's branch targeting bid, or for fallthrough entries the
// parent's last branch (climbing past branchless ancestors). It returns
// nil at the region root.
func (b *builder) resolver(bid ir.BlockID) *Node {
	r := b.g.Region
	cur := bid
	for {
		parent := r.Parent(cur)
		if parent == ir.NoBlock {
			return nil
		}
		var last *Node
		for _, n := range b.termNodes(parent) {
			if n.Op.IsBranch() && n.Op.Target == cur {
				return n // arm entry
			}
			last = n
		}
		if last != nil {
			return last // fallthrough entry: every branch checked first
		}
		cur = parent // branchless block: climb
	}
}

// liveExitEdges orders each value-producing op before every region-exit
// branch (in its own block or its subtree) whose target path still needs
// the value.
func (b *builder) liveExitEdges() {
	r := b.g.Region
	lv := b.opts.Liveness
	if lv == nil {
		// Without liveness (renaming disabled and no analysis supplied) we
		// fall back to the conservative rule: everything precedes its own
		// block's terminators.
		for _, bid := range r.Blocks {
			for _, n := range b.bodyNodes(bid) {
				for _, t := range b.termNodes(bid) {
					b.addEdge(n, t, 0, EdgeLive)
				}
			}
		}
		return
	}
	for _, bid := range r.Blocks {
		b.subtreeBuf = b.appendSubtree(b.subtreeBuf[:0], bid)
		sub := b.subtreeBuf
		for _, n := range b.bodyNodes(bid) {
			op := n.Op
			if len(op.Dests) == 0 {
				continue
			}
			for _, d := range sub {
				for _, t := range b.termNodes(d) {
					br := t.Op
					if !br.IsBranch() {
						continue
					}
					if r.Contains(br.Target) && r.Parent(br.Target) == d {
						continue // tree edge, not an exit
					}
					for _, dst := range op.Dests {
						if dst.IsValid() && lv.LiveIn[br.Target].Has(dst) {
							b.addEdge(n, t, 0, EdgeLive)
							break
						}
					}
				}
			}
		}
	}
}

// nearestDescendantTerms descends the fallthrough chain from a
// terminator-less block to the first block that has terminators (a
// terminator-less block has at most one in-region child) and returns them.
func (b *builder) nearestDescendantTerms(bid ir.BlockID) []*Node {
	r := b.g.Region
	cur := bid
	for {
		ch := r.Children(cur)
		if len(ch) != 1 {
			return nil
		}
		cur = ch[0]
		if terms := b.termNodes(cur); len(terms) > 0 {
			return terms
		}
	}
}
