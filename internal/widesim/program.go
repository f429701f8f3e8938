package widesim

import (
	"fmt"
	"slices"

	"protest/internal/circuit"
	"protest/internal/logic"
)

// opcode is the arity-specialized operation of one compiled instruction.
// The mapping from (logic.Op, arity) to opcode mirrors bitsim's evalNode
// fast paths exactly, including the fold identities of logic.EvalWord
// (an n-ary And/Or/Xor with one pin behaves as Buf, Nand/Nor/Xnor as
// Not), so a compiled run is bit-identical to the narrow oracle.
type opcode uint8

const (
	opConst0 opcode = iota
	opConst1
	opBuf
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
	opTable
)

// instr is one compiled gate in 12 bytes: opOut holds the opcode in its
// low opBits bits and the value slot the gate writes above them.  For
// arity-1 and arity-2 opcodes a and b are the operands' value slots;
// for the n-ary opcodes a is an offset into the stream's args and b the
// pin count, and a table gate stores its table index at args[a] and its
// b pin slots after it.
type instr struct {
	opOut uint32
	a, b  int32
}

// opBits is the width of the opcode field of instr.opOut.
const opBits = 5

func (ins *instr) op() opcode { return opcode(ins.opOut & (1<<opBits - 1)) }
func (ins *instr) out() int32 { return int32(ins.opOut >> opBits) }

// stream is a compiled instruction sequence with the pin lists and
// truth tables its n-ary and table gates refer to.  Every value slot an
// instruction reads or writes is below slots, so a value array of at
// least slots entries is one that no instruction of the stream can
// index out of: NumNodes for a Program, which names only the good bank,
// and 2*NumNodes for Regions, which name both banks.
type stream struct {
	code   []instr
	args   []int32
	tables []*logic.TruthTable
	slots  int32
}

// emit appends the instruction of gate n writing value slot out and
// reading each fanin f from value slot slot(f).
func (st *stream) emit(n *circuit.Node, out int32, slot func(circuit.NodeID) int32) {
	var ins instr
	var op opcode
	if n.Op == logic.TableOp {
		op = opTable
		ins.a = int32(len(st.args))
		ins.b = int32(len(n.Fanin))
		st.args = append(st.args, int32(len(st.tables)))
		st.tables = append(st.tables, n.Table)
		for _, f := range n.Fanin {
			st.args = append(st.args, slot(f))
		}
	} else {
		switch len(n.Fanin) {
		case 0:
			switch n.Op {
			case logic.Const0:
				op = opConst0
			case logic.Const1:
				op = opConst1
			}
		case 1:
			ins.a = slot(n.Fanin[0])
			switch n.Op {
			case logic.Buf, logic.And, logic.Or, logic.Xor:
				op = opBuf
			case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
				op = opNot
			}
		case 2:
			ins.a, ins.b = slot(n.Fanin[0]), slot(n.Fanin[1])
			switch n.Op {
			case logic.And:
				op = opAnd2
			case logic.Nand:
				op = opNand2
			case logic.Or:
				op = opOr2
			case logic.Nor:
				op = opNor2
			case logic.Xor:
				op = opXor2
			case logic.Xnor:
				op = opXnor2
			}
		default:
			ins.a, ins.b = int32(len(st.args)), int32(len(n.Fanin))
			for _, f := range n.Fanin {
				st.args = append(st.args, slot(f))
			}
			switch n.Op {
			case logic.And:
				op = opAndN
			case logic.Nand:
				op = opNandN
			case logic.Or:
				op = opOrN
			case logic.Nor:
				op = opNorN
			case logic.Xor:
				op = opXorN
			case logic.Xnor:
				op = opXnorN
			}
		}
	}
	st.code = append(st.code, pack(ins, op, out))
}

// pack sets the opcode and output slot of ins.
func pack(ins instr, op opcode, out int32) instr {
	if out < 0 || out >= 1<<(32-opBits) {
		panic(fmt.Sprintf("widesim: value slot %d out of range", out))
	}
	ins.opOut = uint32(out)<<opBits | uint32(op)
	return ins
}

// Program is an immutable compiled form of a circuit: gates flattened
// into a single instruction stream in level order (the constant gates
// of level 0, then all level-1 gates, then level-2, ...).  One Program
// is shared by any number of Sim instances of any width.
//
// A Sim's value array has two banks of one slot per node: the good bank
// (slot id) that the program writes, and the faulty bank (slot
// NumNodes+id) that compiled Regions write.
type Program struct {
	c *circuit.Circuit
	stream
	maxArity int
}

// Compile levelizes and flattens the circuit.  Instructions are ordered
// by node level and, within a level, by topological position — a valid
// evaluation order because every fanin of a level-L gate lives at a
// strictly smaller level.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{c: c}
	p.slots = int32(c.NumNodes())
	buckets := make([][]circuit.NodeID, c.MaxLevel()+1)
	for _, id := range c.TopoOrder() {
		n := c.Node(id)
		if n.IsInput {
			continue
		}
		buckets[n.Level] = append(buckets[n.Level], id)
		p.maxArity = max(p.maxArity, len(n.Fanin))
	}
	good := func(f circuit.NodeID) int32 { return int32(f) }
	p.code = make([]instr, 0, c.NumGates())
	for _, ids := range buckets {
		for _, id := range ids {
			p.emit(c.Node(id), int32(id), good)
		}
	}
	return p
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *circuit.Circuit { return p.c }

// Regions is the compiled two-bank form of a list of stem regions, one
// instruction stream per stem.  Stream i first writes the complement of
// stem i's good value into the stem's faulty slot, then evaluates each
// node of the region into its faulty slot.  Each operand was bound at
// compile time to the bank it must read: the faulty bank for the stem
// and the region's own nodes, the good bank for every other node, whose
// value a flip of the stem cannot change inside the region.  Running a
// stream therefore writes only the region's faulty slots, reads no
// faulty slot it has not written, and needs no reset between stems.
//
// Regions are immutable and, like the Program they were compiled
// against, shared by any number of Sims of any width.
type Regions struct {
	stream
	off    []int32 // stream i is code[off[i]:off[i+1]]
	outs   []int32 // output positions observed by stream i: outs[outOff[i]:outOff[i+1]]
	outOff []int32
}

// CompileRegions compiles one stream per stem: stems[i] flipped and
// regions[i] evaluated over the two banks.  Every regions[i] must be
// ascending (topological) and must not contain stems[i]; a node of it
// may read only the stem, earlier nodes of the region and nodes outside
// the region.
func (p *Program) CompileRegions(stems []circuit.NodeID, regions [][]circuit.NodeID) *Regions {
	c := p.c
	nn := int32(c.NumNodes())
	faulty := make([]bool, nn)
	slot := func(f circuit.NodeID) int32 {
		if faulty[f] {
			return nn + int32(f)
		}
		return int32(f)
	}
	r := &Regions{off: make([]int32, 1, len(stems)+1), outOff: make([]int32, 1, len(stems)+1)}
	r.slots = 2 * nn
	for i, s := range stems {
		faulty[s] = true
		for _, id := range regions[i] {
			faulty[id] = true
		}
		r.code = append(r.code, pack(instr{a: int32(s)}, opNot, nn+int32(s)))
		for _, id := range regions[i] {
			r.emit(c.Node(id), nn+int32(id), slot)
		}
		r.off = append(r.off, int32(len(r.code)))
		for pos, o := range c.Outputs {
			if faulty[o] {
				r.outs = append(r.outs, int32(pos))
			}
		}
		r.outOff = append(r.outOff, int32(len(r.outs)))
		faulty[s] = false
		for _, id := range regions[i] {
			faulty[id] = false
		}
	}
	// Regions live as long as their circuit: drop append's spare capacity.
	r.code, r.args = slices.Clone(r.code), slices.Clone(r.args)
	return r
}

// Outputs returns the positions (indices into the circuit's Outputs)
// of the primary outputs stream i writes a faulty value for: those
// that are its stem or lie in its region.  Every other output keeps its
// good value under a flip of stem i.
func (r *Regions) Outputs(i int) []int32 { return r.outs[r.outOff[i]:r.outOff[i+1]] }
