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
	opAndNot2 // ^a & b: an Or pin's line (see Stems)
	opOrXorN  // OR of the XORs of the pairs of its pins: an observability
	opTable
	opTablePin // a table gate's boolean difference in one pin, ANDed with a line
)

// instr is one compiled gate in 12 bytes: opOut holds the opcode in its
// low opBits bits and the value slot the gate writes above them.  For
// arity-1 and arity-2 opcodes a and b are the operands' value slots;
// for the n-ary opcodes a is an offset into the stream's args and b the
// pin count, and a table gate stores its table index at args[a] and its
// b pin slots after it.  opTablePin stores the table index, the flipped
// pin, the gate's own slot and the line slot at args[a:a+4] and the b
// pin slots after them.
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
// 2*NumNodes for Regions, which name both banks, and the slot count of
// Stems, whose streams also name the constant, line and observability
// slots.
type stream struct {
	code   []instr
	args   []int32
	tables []*logic.TruthTable
	slots  int32
}

// emit appends the instruction of gate n writing value slot out and
// reading each fanin f from value slot slot(f).
func (st *stream) emit(n *circuit.Node, out int32, slot func(circuit.NodeID) int32) {
	var buf [8]int32
	pins := buf[:0]
	for _, f := range n.Fanin {
		pins = append(pins, slot(f))
	}
	st.gate(n.Op, n.Table, out, pins)
}

// gate appends the instruction of a gate of op (and table tbl, for a
// table gate) over the value slots pins, writing value slot out.
func (st *stream) gate(op logic.Op, tbl *logic.TruthTable, out int32, pins []int32) {
	if op == logic.TableOp {
		st.put(opTable, out, int32(len(st.args)), int32(len(pins)))
		st.args = append(st.args, int32(len(st.tables)))
		st.args = append(st.args, pins...)
		st.tables = append(st.tables, tbl)
		return
	}
	switch len(pins) {
	case 0:
		if op == logic.Const1 {
			st.put(opConst1, out, 0, 0)
		} else {
			st.put(opConst0, out, 0, 0)
		}
	case 1:
		switch op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			st.put(opBuf, out, pins[0], 0)
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			st.put(opNot, out, pins[0], 0)
		}
	case 2:
		st.put(binaryOps[op], out, pins[0], pins[1])
	default:
		st.nary(naryOps[op], out, pins...)
	}
}

// binaryOps and naryOps map the basic logic ops of two and of more pins
// to their opcodes.
var (
	binaryOps = [...]opcode{logic.And: opAnd2, logic.Nand: opNand2, logic.Or: opOr2,
		logic.Nor: opNor2, logic.Xor: opXor2, logic.Xnor: opXnor2}
	naryOps = [...]opcode{logic.And: opAndN, logic.Nand: opNandN, logic.Or: opOrN,
		logic.Nor: opNorN, logic.Xor: opXorN, logic.Xnor: opXnorN}
)

// put appends an instruction whose operands are the value slots a and b.
func (st *stream) put(op opcode, out, a, b int32) {
	st.code = append(st.code, pack(instr{a: a, b: b}, op, out))
}

// nary appends an instruction whose operands are the value slots pins,
// stored in args.
func (st *stream) nary(op opcode, out int32, pins ...int32) {
	st.put(op, out, int32(len(st.args)), int32(len(pins)))
	st.args = append(st.args, pins...)
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
// is shared by any number of Sim instances.
//
// A Sim's value array starts with two banks of one slot per node: the
// good bank (slot id) that the program writes, and the faulty bank
// (slot NumNodes+id) that compiled Regions and Stems write.  The
// all-ones slot 2*NumNodes and the all-zero slot 2*NumNodes+1 follow,
// which Reset fills and no stream writes, and after them the line and
// observability slots of compiled Stems.
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

// ones and zero return the constant slots of the program's value
// arrays, and fixed the number of slots up to and including them.
func (p *Program) ones() int32  { return 2 * int32(p.c.NumNodes()) }
func (p *Program) zero() int32  { return p.ones() + 1 }
func (p *Program) fixed() int32 { return p.ones() + 2 }

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
// against, shared by any number of Sims.
type Regions struct {
	stream
	off    []int32 // stream i is code[off[i]:off[i+1]]
	outs   []int32 // output positions observed by stream i: outs[outOff[i]:outOff[i+1]]
	outOff []int32
}

// CompileCones compiles the full fanout cone of every stem of the
// circuit's fanout-free regions (circuit.FFR's Stems), stream i for
// stem i: the form response capture (BIST) needs, where every reached
// primary output matters.
func (p *Program) CompileCones() *Regions {
	c := p.c
	stems := c.FFR().Stems
	cones := make([][]circuit.NodeID, len(stems))
	marked := make([]bool, c.NumNodes())
	var buf []circuit.NodeID
	for i, s := range stems {
		buf = cone(c, s, circuit.InvalidNode, marked, buf[:0])
		cones[i] = slices.Clone(buf)
	}
	return p.compileRegions(stems, cones)
}

// compileRegions compiles one stream per stem: stems[i] flipped and
// regions[i] evaluated over the two banks.  Every regions[i] must be
// ascending (topological) and must not contain stems[i]; a node of it
// may read only the stem, earlier nodes of the region and nodes outside
// the region.
func (p *Program) compileRegions(stems []circuit.NodeID, regions [][]circuit.NodeID) *Regions {
	c := p.c
	faulty := make([]bool, c.NumNodes())
	r := &Regions{off: make([]int32, 1, len(stems)+1), outOff: make([]int32, 1, len(stems)+1)}
	r.slots = p.ones()
	for i, s := range stems {
		r.region(c, s, regions[i], faulty)
		r.off = append(r.off, int32(len(r.code)))
		for pos, o := range c.Outputs {
			if faulty[o] {
				r.outs = append(r.outs, int32(pos))
			}
		}
		r.outOff = append(r.outOff, int32(len(r.outs)))
		mark(faulty, s, regions[i], false)
	}
	// Regions live as long as their circuit: drop append's spare capacity.
	r.code, r.args = slices.Clone(r.code), slices.Clone(r.args)
	return r
}

// region appends the flip of stem s and the evaluation of the nodes of
// its region into the faulty bank, each operand bound to the bank it
// must read (see Regions).  faulty is scratch, all false on entry; the
// stem and the nodes are left marked, for the caller to clear with mark.
func (st *stream) region(c *circuit.Circuit, s circuit.NodeID, nodes []circuit.NodeID, faulty []bool) {
	nn := int32(c.NumNodes())
	slot := func(f circuit.NodeID) int32 {
		if faulty[f] {
			return nn + int32(f)
		}
		return int32(f)
	}
	mark(faulty, s, nodes, true)
	st.put(opNot, nn+int32(s), int32(s), 0)
	for _, id := range nodes {
		st.emit(c.Node(id), nn+int32(id), slot)
	}
}

// mark sets the entries of stem s and of nodes in faulty to v.
func mark(faulty []bool, s circuit.NodeID, nodes []circuit.NodeID, v bool) {
	faulty[s] = v
	for _, id := range nodes {
		faulty[id] = v
	}
}

// Outputs returns the positions (indices into the circuit's Outputs)
// of the primary outputs stream i writes a faulty value for: those
// that are its stem or lie in its region.  Every other output keeps its
// good value under a flip of stem i.
func (r *Regions) Outputs(i int) []int32 { return r.outs[r.outOff[i]:r.outOff[i+1]] }

// cone appends the fanout cone of s to out in ascending ID order, not
// scanning beyond stop (pass InvalidNode for the full cone).  s itself
// is excluded.  Node IDs are topological, so a forward sweep marking
// nodes with a marked fanin is exact forward reachability; marked is
// caller-provided scratch (all false on entry and exit).
func cone(c *circuit.Circuit, s, stop circuit.NodeID, marked []bool, out []circuit.NodeID) []circuit.NodeID {
	end := circuit.NodeID(c.NumNodes() - 1)
	if stop != circuit.InvalidNode {
		end = stop
	}
	marked[s] = true
	for id := s + 1; id <= end; id++ {
		for _, f := range c.Nodes[id].Fanin {
			if marked[f] {
				marked[id] = true
				out = append(out, id)
				break
			}
		}
	}
	marked[s] = false
	for _, id := range out {
		marked[id] = false
	}
	return out
}
