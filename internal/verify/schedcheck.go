package verify

import (
	"fmt"

	"treegion/internal/cfg"
	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// Schedule-legality rules. The verifier proves legality twice over: every
// DDG edge the scheduler consumed is checked against the cycle assignment
// (a scheduler bug cannot hide), and the register, memory and control
// constraints are re-derived from the IR and the region tree without
// consulting the graph's edges at all (a graph-builder bug cannot hide
// either).
//
//	SC001  a node is unscheduled, or schedules/regions are mismatched
//	SC002  a register dependence (flow, anti, output) is violated
//	SC003  a cycle issues more ops than the machine's width
//	SC004  serialized memory ordering is violated (a load bypassed a store)
//	SC005  a speculated op clobbers a value observable on an off-path
//	       successor (the paper's renaming obligation, Section 3)
//	SC006  terminators are out of priority order or precede their resolver
//	SC007  a non-speculatable op escapes its control window
//	SC008  a value producer issues after a region exit that needs the value

// CheckSchedule verifies one region's schedule. lv must be liveness over
// the function's current (post-compilation) shape.
func CheckSchedule(fn *ir.Function, r *region.Region, s *sched.Schedule, lv *cfg.Liveness) []Diagnostic {
	c := &schedChecker{fn: fn, r: r, s: s, lv: lv, seen: make(map[string]bool)}
	if s == nil || s.Graph == nil {
		c.addAt("SC001", Error, ir.NoBlock, -1, "region at bb%d has no schedule", r.Root)
		return c.ds
	}
	c.g = s.Graph
	if c.g.Region != r {
		c.addAt("SC001", Error, ir.NoBlock, -1, "schedule belongs to a different region (root bb%d, want bb%d)",
			c.g.Region.Root, r.Root)
		return c.ds
	}
	if len(s.Cycle) != len(c.g.Nodes) {
		c.addAt("SC001", Error, ir.NoBlock, -1, "%d cycle assignments for %d nodes", len(s.Cycle), len(c.g.Nodes))
		return c.ds
	}
	c.byBlock = make(map[ir.BlockID][]*ddg.Node)
	for _, n := range c.g.Nodes {
		if s.Cycle[n.Index] < 0 {
			c.addNode("SC001", Error, n, "%v is unscheduled", n.Op)
		}
		c.byBlock[n.Home] = append(c.byBlock[n.Home], n)
	}
	c.width()
	c.edgeConformance()
	c.pathDependences()
	c.controlWindows()
	c.liveExits()
	c.offPathClobbers()
	return c.ds
}

type schedChecker struct {
	fn *ir.Function
	r  *region.Region
	s  *sched.Schedule
	g  *ddg.Graph
	lv *cfg.Liveness
	// byBlock groups nodes by Home in Index order, which is the effective
	// op order the DDG builder derived (body, merged representatives, then
	// terminators).
	byBlock map[ir.BlockID][]*ddg.Node
	seen    map[string]bool
	ds      []Diagnostic
}

func (c *schedChecker) cyc(n *ddg.Node) int { return c.s.Cycle[n.Index] }

// ok reports that a node is scheduled; unscheduled nodes already carry an
// SC001 and are excluded from every other rule.
func (c *schedChecker) ok(n *ddg.Node) bool { return c.cyc(n) >= 0 }

func (c *schedChecker) addAt(rule string, sev Severity, b ir.BlockID, op int, format string, args ...interface{}) {
	c.ds = append(c.ds, Diagnostic{
		Rule: rule, Severity: sev, Fn: c.fn.Name, Block: b, Op: op,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *schedChecker) addNode(rule string, sev Severity, n *ddg.Node, format string, args ...interface{}) {
	c.addAt(rule, sev, n.Home, n.Op.ID, format, args...)
}

// addOnce suppresses duplicates: path walks revisit shared tree prefixes, so
// the same violated pair shows up once per leaf otherwise.
func (c *schedChecker) addOnce(rule string, from, to *ddg.Node, format string, args ...interface{}) {
	key := fmt.Sprintf("%s/%d/%d", rule, from.Op.ID, to.Op.ID)
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.addNode(rule, Error, to, format, args...)
}

// width checks SC003: per-cycle issue counts against the model. Renaming
// copies are slot-free by the paper's accounting and do not count.
func (c *schedChecker) width() {
	perCycle := make(map[int]int)
	for _, n := range c.g.Nodes {
		if c.ok(n) && !n.IsCopy() {
			perCycle[c.cyc(n)]++
		}
	}
	for cycle, k := range perCycle {
		if k > c.s.Model.IssueWidth {
			c.addAt("SC003", Error, ir.NoBlock, -1,
				"cycle %d issues %d ops on a %d-wide machine", cycle, k, c.s.Model.IssueWidth)
		}
	}
}

// edgeConformance checks the cycle assignment against every edge of the DDG
// the scheduler actually consumed, mapping each violated edge to the rule
// its kind encodes.
func (c *schedChecker) edgeConformance() {
	for _, n := range c.g.Nodes {
		if !c.ok(n) {
			continue
		}
		for _, e := range n.Succs {
			if !c.ok(e.To) || c.cyc(e.To) >= c.cyc(n)+e.Latency {
				continue
			}
			rule := "SC002"
			switch e.Kind {
			case ddg.EdgeMem:
				rule = "SC004"
			case ddg.EdgeControl:
				rule = "SC007"
				if n.Term && e.To.Term {
					rule = "SC006"
				}
			case ddg.EdgeLive:
				rule = "SC008"
			}
			c.addOnce(rule, n, e.To,
				"%s edge violated: %v (cycle %d) -> %v (cycle %d) needs latency %d",
				e.Kind, n.Op, c.cyc(n), e.To.Op, c.cyc(e.To), e.Latency)
		}
	}
}

// pathDependences re-derives the register and memory constraints (SC002,
// SC004) along every root-to-leaf path, mirroring the semantics the DDG
// walker encodes but sharing none of its code or edges: reaching
// definitions (guarded definitions join, unguarded ones kill), readers
// since definition, and the serialized memory state.
func (c *schedChecker) pathDependences() {
	regs := newPathRegs(&c.lv.Regs, c.g.Nodes)
	for _, leaf := range c.r.Leaves() {
		regs.reset()
		var lastStore *ddg.Node
		var loads []*ddg.Node
		for _, bid := range c.r.PathTo(leaf) {
			for _, n := range c.byBlock[bid] {
				if !c.ok(n) {
					continue
				}
				op := n.Op
				srcs := op.Srcs
				if op.Guarded() {
					var buf [3]ir.Reg
					srcs = append(append(buf[:0], srcs...), op.Guard)
				}
				for _, src := range srcs {
					if !src.IsValid() {
						continue
					}
					i, sl := regs.at(src)
					for _, def := range sl.defs {
						if lat := machine.Latency(def.Op.Opcode); c.cyc(n) < c.cyc(def)+lat {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) reads %v before %v (cycle %d, latency %d) produces it",
								op, c.cyc(n), src, def.Op, c.cyc(def), lat)
						}
					}
					regs.touch(i, sl)
					sl.readers = append(sl.readers, n)
				}
				switch op.Opcode {
				case ir.Ld:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					loads = append(loads, n)
				case ir.St, ir.Call:
					if lastStore != nil && c.cyc(n) < c.cyc(lastStore) {
						c.addOnce("SC004", lastStore, n,
							"%v (cycle %d) bypasses %v (cycle %d)", op, c.cyc(n), lastStore.Op, c.cyc(lastStore))
					}
					for _, ld := range loads {
						if c.cyc(n) < c.cyc(ld) {
							c.addOnce("SC004", ld, n,
								"%v (cycle %d) overtakes %v (cycle %d)", op, c.cyc(n), ld.Op, c.cyc(ld))
						}
					}
					lastStore = n
					loads = loads[:0]
				}
				for _, d := range op.Dests {
					if !d.IsValid() {
						continue
					}
					_, sl := regs.at(d)
					for _, rd := range sl.readers {
						if rd != n && c.cyc(n) < c.cyc(rd) {
							c.addOnce("SC002", rd, n,
								"%v (cycle %d) overwrites %v before reader %v (cycle %d)",
								op, c.cyc(n), d, rd.Op, c.cyc(rd))
						}
					}
					for _, def := range sl.defs {
						if c.cyc(n) < c.cyc(def)+1 {
							c.addOnce("SC002", def, n,
								"%v (cycle %d) does not issue after prior definition %v (cycle %d)",
								op, c.cyc(n), def.Op, c.cyc(def))
						}
					}
				}
				for _, d := range op.Dests {
					if !d.IsValid() {
						continue
					}
					i, sl := regs.at(d)
					if !op.Guarded() {
						sl.defs = sl.defs[:0]
						sl.readers = sl.readers[:0]
					}
					regs.touch(i, sl)
					sl.defs = append(sl.defs, n)
				}
			}
		}
	}
}

// pathRegs holds one path walk's reaching definitions and readers since
// definition, per register, in slots numbered region-locally: every
// register the region's nodes name gets one slot up front. The map from
// register to slot is dense over idx, the verifier's own RegIndexTable
// snapshot of the function (the one its liveness pass took), so a lookup is
// two array loads; a register outside the snapshot — one an op of the graph
// names but no op of the function does — gets a slot through a small map,
// so every register is tracked exactly. Walks reset only the slots they
// touched.
type pathRegs struct {
	idx     *ir.RegIndex
	local   []int32 // dense index → slot+1
	extra   map[ir.Reg]int32
	slots   []pathSlot
	touched []int32
}

type pathSlot struct {
	defs    []*ddg.Node // definitions reaching this point of the path
	readers []*ddg.Node // reads since the last killing definition
}

func newPathRegs(idx *ir.RegIndex, nodes []*ddg.Node) *pathRegs {
	t := &pathRegs{idx: idx, local: make([]int32, idx.Len())}
	n := int32(0)
	assign := func(r ir.Reg) {
		if !r.IsValid() {
			return
		}
		if k := idx.Of(r); k >= 0 {
			if t.local[k] == 0 {
				n++
				t.local[k] = n
			}
			return
		}
		if t.extra[r] == 0 {
			if t.extra == nil {
				t.extra = make(map[ir.Reg]int32)
			}
			n++
			t.extra[r] = n
		}
	}
	for _, nd := range nodes {
		for _, r := range nd.Op.Srcs {
			assign(r)
		}
		for _, r := range nd.Op.Dests {
			assign(r)
		}
		assign(nd.Op.Guard)
	}
	t.slots = make([]pathSlot, n)
	return t
}

// at returns r's slot; r must be named by one of the region's nodes.
func (t *pathRegs) at(r ir.Reg) (int32, *pathSlot) {
	var i int32
	if k := t.idx.Of(r); k >= 0 {
		i = t.local[k] - 1
	} else {
		i = t.extra[r] - 1
	}
	return i, &t.slots[i]
}

// touch records a slot about to go from empty to non-empty (a slot may be
// listed more than once; reset is idempotent).
func (t *pathRegs) touch(i int32, s *pathSlot) {
	if len(s.defs) == 0 && len(s.readers) == 0 {
		t.touched = append(t.touched, i)
	}
}

func (t *pathRegs) reset() {
	for _, i := range t.touched {
		s := &t.slots[i]
		s.defs = s.defs[:0]
		s.readers = s.readers[:0]
	}
	t.touched = t.touched[:0]
}

// terms returns bid's terminator nodes in effective order.
func (c *schedChecker) terms(bid ir.BlockID) []*ddg.Node {
	var out []*ddg.Node
	for _, n := range c.byBlock[bid] {
		if n.Term {
			out = append(out, n)
		}
	}
	return out
}

// resolver re-derives the branch whose resolution admits control into bid:
// the parent's branch targeting bid, or the parent's last branch for a
// fallthrough entry, climbing past branchless ancestors. Nil at the root.
func (c *schedChecker) resolver(bid ir.BlockID) *ddg.Node {
	cur := bid
	for {
		parent := c.r.Parent(cur)
		if parent == ir.NoBlock {
			return nil
		}
		var last *ddg.Node
		for _, t := range c.terms(parent) {
			if t.Op.IsBranch() && t.Op.Target == cur {
				return t
			}
			last = t
		}
		if last != nil {
			return last
		}
		cur = parent
	}
}

// downTerms re-derives the terminators that bound bid's non-speculatable
// ops from below: the block's own, or — for terminator-less blocks — the
// nearest descendant terminators along the single fallthrough chain.
func (c *schedChecker) downTerms(bid ir.BlockID) []*ddg.Node {
	if ts := c.terms(bid); len(ts) > 0 {
		return ts
	}
	cur := bid
	for {
		ch := c.r.Children(cur)
		if len(ch) != 1 {
			return nil
		}
		cur = ch[0]
		if ts := c.terms(cur); len(ts) > 0 {
			return ts
		}
	}
}

// controlWindows re-derives SC006 and SC007. Terminators must issue in
// priority (program) order — a multiway branch's arms are tested in
// sequence, so reordering them rewrites the program's control decisions —
// and no terminator may issue before the branch that admits its block.
// Non-speculatable ops (stores, calls, copies) must execute exactly when
// their home block does: strictly after its resolver, no later than its
// terminators.
func (c *schedChecker) controlWindows() {
	for _, bid := range c.r.Blocks {
		terms := c.terms(bid)
		for i := 0; i+1 < len(terms); i++ {
			a, b := terms[i], terms[i+1]
			if c.ok(a) && c.ok(b) && c.cyc(b) < c.cyc(a) {
				c.addOnce("SC006", a, b,
					"terminator %v (cycle %d) issues before prior arm %v (cycle %d)",
					b.Op, c.cyc(b), a.Op, c.cyc(a))
			}
		}
		res := c.resolver(bid)
		if res != nil && c.ok(res) {
			for _, t := range terms {
				if c.ok(t) && c.cyc(t) < c.cyc(res) {
					c.addOnce("SC006", res, t,
						"terminator %v (cycle %d) issues before its resolver %v (cycle %d)",
						t.Op, c.cyc(t), res.Op, c.cyc(res))
				}
			}
		}
		down := c.downTerms(bid)
		for _, n := range c.byBlock[bid] {
			if n.Term || !c.ok(n) || n.Op.Opcode.Speculatable() {
				continue
			}
			if res != nil && c.ok(res) && c.cyc(n) < c.cyc(res)+1 {
				c.addOnce("SC007", res, n,
					"non-speculatable %v (cycle %d) issues before control resolves at %v (cycle %d)",
					n.Op, c.cyc(n), res.Op, c.cyc(res))
			}
			for _, t := range down {
				if c.ok(t) && c.cyc(n) > c.cyc(t) {
					c.addOnce("SC007", n, t,
						"non-speculatable %v (cycle %d) issues after its block's terminator %v (cycle %d)",
						n.Op, c.cyc(n), t.Op, c.cyc(t))
				}
			}
		}
	}
}

// liveExits re-derives SC008 from the current liveness: a producer must
// issue no later than any region-exit branch in its subtree whose target
// still reads one of its destinations. (The DDG builder used the
// pre-renaming liveness; recomputed liveness is never larger at exit
// targets — renaming only removes in-region reads — so this cannot flag a
// schedule the builder's edges allowed.)
func (c *schedChecker) liveExits() {
	type exitBr struct {
		n      *ddg.Node
		target ir.BlockID
	}
	exits := make(map[ir.BlockID][]exitBr)
	for _, bid := range c.r.Blocks {
		for _, t := range c.terms(bid) {
			if t.Op.IsBranch() && !(c.r.Contains(t.Op.Target) && c.r.Parent(t.Op.Target) == bid) {
				exits[bid] = append(exits[bid], exitBr{t, t.Op.Target})
			}
		}
	}
	for _, bid := range c.r.Blocks {
		sub := c.r.Subtree(bid)
		for _, n := range c.byBlock[bid] {
			if n.Term || !c.ok(n) || len(n.Op.Dests) == 0 {
				continue
			}
			for _, d := range sub {
				for _, e := range exits[d] {
					if !c.ok(e.n) || c.cyc(n) <= c.cyc(e.n) {
						continue
					}
					for _, dst := range n.Op.Dests {
						if dst.IsValid() && c.lv.LiveIn[e.target].Has(dst) {
							c.addOnce("SC008", n, e.n,
								"%v (cycle %d) produces %v after exit %v (cycle %d) whose target bb%d needs it",
								n.Op, c.cyc(n), dst, e.n.Op, c.cyc(e.n), e.target)
							break
						}
					}
				}
			}
		}
	}
}

// offPathClobbers re-derives SC005, the paper's Section 3 obligation: an op
// speculated above a divergence executes on sibling paths too, so its
// destination must not be observable there — not live into the off-path
// successor, and not racing a definition the off-path subtree relies on.
// Renaming discharges the obligation with fresh destinations; this check
// proves it was discharged.
//
// An op n homed at H executes on an off-path successor s of an ancestor A
// iff it was hoisted into the shared stream above every arm admission on
// the way down to H (for each arm-entered block on the path, n issues no
// later than the branch that admits it) and, when s itself is entered by a
// branch, n issues no later than that branch. Fallthrough edges transfer
// control only after the whole stream executes, so they gate nothing.
func (c *schedChecker) offPathClobbers() {
	for _, n := range c.g.Nodes {
		if n.Term || !c.ok(n) || len(n.Op.Dests) == 0 || n.Op.Guarded() {
			continue
		}
		cur := n.Home
		for {
			parent := c.r.Parent(cur)
			if parent == ir.NoBlock {
				break
			}
			// The gate first: if cur is arm-entered and n issues after the
			// admitting branch, n sits in cur's own stream segment and can
			// execute on no sibling path, here or higher — even one whose
			// branch happens to be scheduled later.
			terms := c.terms(parent)
			admitted := true
			for _, t := range terms {
				if t.Op.IsBranch() && t.Op.Target == cur && c.r.Contains(cur) && c.r.Parent(cur) == parent {
					if !c.ok(t) || c.cyc(n) > c.cyc(t) {
						admitted = false
					}
				}
			}
			if !admitted {
				break
			}
			for _, t := range terms {
				if !t.Op.IsBranch() {
					continue
				}
				tgt := t.Op.Target
				if tgt == cur && c.r.Contains(tgt) && c.r.Parent(tgt) == parent {
					continue // the on-path edge
				}
				if c.ok(t) && c.cyc(n) <= c.cyc(t) {
					c.clobber(n, parent, tgt)
				}
			}
			if ft := c.fn.Block(parent).FallThrough; ft != ir.NoBlock && ft != cur {
				c.clobber(n, parent, ft)
			}
			cur = parent
		}
	}
}

// clobber reports n's destinations observable on off-path successor s of
// divergence A: live into s, or colliding with a definition inside s's
// subtree that the schedule lets n overwrite.
func (c *schedChecker) clobber(n *ddg.Node, a, s ir.BlockID) {
	for _, d := range n.Op.Dests {
		if !d.IsValid() {
			continue
		}
		if c.lv.LiveIn[s].Has(d) {
			key := fmt.Sprintf("SC005/%d/%d", n.Op.ID, s)
			if !c.seen[key] {
				c.seen[key] = true
				c.addNode("SC005", Error, n,
					"speculated %v (cycle %d) clobbers %v, live into off-path bb%d (missing rename copy?)",
					n.Op, c.cyc(n), d, s)
			}
		}
		if !(c.r.Contains(s) && c.r.Parent(s) == a) {
			continue
		}
		for _, sb := range c.r.Subtree(s) {
			for _, m := range c.byBlock[sb] {
				if m.Term || !c.ok(m) || c.cyc(m) > c.cyc(n) {
					continue
				}
				for _, md := range m.Op.Dests {
					if md == d {
						c.addOnce("SC005", m, n,
							"speculated %v (cycle %d) overwrites %v after off-path definition %v (cycle %d) in bb%d",
							n.Op, c.cyc(n), d, m.Op, c.cyc(m), sb)
					}
				}
			}
		}
	}
}
