package interp

import "treegion/internal/ir"

// state is the machine state of one trip: register files and memory.
// Memory cells read before being written return a deterministic synthetic
// value derived from the address, so load-dependent computation still
// produces meaningful, reproducible store traces.
//
// Registers live in one dense file per class, indexed by register number
// (the IR numbers registers densely per class). A file grows on the first
// write past its end; a register never written reads 0, exactly as the
// zero-initialized parameters the synthetic suite relies on.
type state struct {
	regs [5][]int64 // indexed by ir.RegClass, then Reg.Num
	mem  map[int64]int64
}

func newState() *state {
	return &state{mem: make(map[int64]int64)}
}

func (s *state) get(r ir.Reg) int64 {
	if int(r.Class) < len(s.regs) {
		if f := s.regs[r.Class]; uint(r.Num) < uint(len(f)) {
			return f[r.Num]
		}
	}
	return 0
}

func (s *state) set(r ir.Reg, v int64) {
	if !r.IsValid() {
		return
	}
	f := s.regs[r.Class]
	if r.Num >= len(f) {
		f = append(f, make([]int64, r.Num+1-len(f))...)
		s.regs[r.Class] = f
	}
	f[r.Num] = v
}

// SyntheticMem returns the initial content of an untouched memory cell.
func SyntheticMem(addr int64) int64 {
	x := uint64(addr) * 0x2545f4914f6cdd1d
	x ^= x >> 29
	return int64(x & 0xffff)
}

// exec evaluates one non-memory-write, non-control op. Guarded ops whose
// predicate is false are squashed.
func (s *state) exec(op *ir.Op) {
	if op.Guarded() && s.get(op.Guard) == 0 {
		return
	}
	switch op.Opcode {
	case ir.Nop, ir.Call, ir.Pbr:
		// Call is opaque; Pbr's BTR value is only meaningful to the
		// scheduler's dataflow, model it as the target block number.
		if op.Opcode == ir.Pbr {
			s.set(op.Dests[0], int64(op.Target))
		}
	case ir.MovI:
		s.set(op.Dests[0], op.Imm)
	case ir.Mov, ir.Copy:
		s.set(op.Dests[0], s.get(op.Srcs[0]))
	case ir.Ld:
		addr := s.get(op.Srcs[0]) + op.Imm
		v, ok := s.mem[addr]
		if !ok {
			v = SyntheticMem(addr)
		}
		s.set(op.Dests[0], v)
	case ir.Cmpp:
		a, b := s.get(op.Srcs[0]), s.get(op.Srcs[1])
		res := int64(0)
		if Compare(op.Cond, a, b) {
			res = 1
		}
		s.set(op.Dests[0], res)
		if len(op.Dests) > 1 {
			s.set(op.Dests[1], 1-res)
		}
	default:
		a, b := int64(0), int64(0)
		if len(op.Srcs) > 0 {
			a = s.get(op.Srcs[0])
		}
		if len(op.Srcs) > 1 {
			b = s.get(op.Srcs[1])
		}
		s.set(op.Dests[0], ALU(op.Opcode, a, b))
	}
}

// Compare evaluates a CMPP relation.
func Compare(c ir.Cond, a, b int64) bool {
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

// ALU evaluates an integer/FP arithmetic opcode over 64-bit values.
func ALU(opc ir.Opcode, a, b int64) int64 {
	switch opc {
	case ir.Add, ir.FAdd:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul, ir.FMul:
		return a * b
	case ir.Div, ir.FDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.And:
		return a & b
	case ir.Or:
		return a | b
	case ir.Xor:
		return a ^ b
	case ir.Shl:
		return a << (uint64(b) & 63)
	case ir.Shr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	return 0
}
