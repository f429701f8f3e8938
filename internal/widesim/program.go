package widesim

import (
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

// instr is one compiled gate.  For arity-1 and arity-2 opcodes a and b
// are fanin node IDs; for the n-ary and table opcodes a is an offset
// into Program.args and b is the pin count.
type instr struct {
	op   opcode
	out  int32 // output node ID
	a, b int32
	tbl  int32 // index into Program.tables, opTable only
}

// Program is an immutable compiled form of a circuit: gates flattened
// into a single instruction stream in level order (all level-1 gates,
// then level-2, ...), with per-level slab boundaries.  One Program is
// shared by any number of Sim instances of any width.
type Program struct {
	c        *circuit.Circuit
	instrs   []instr
	args     []int32
	tables   []*logic.TruthTable
	levelOff []int32 // levelOff[l]..levelOff[l+1] = instrs of level l+1
	maxArity int
	// at maps a node ID to the index of its instruction (-1 for primary
	// inputs); order lists the gates in instruction order.  Together
	// they let Sim.EvalNodes run any topologically ordered node subset
	// through the same loop as a full Run.
	at    []int32
	order []circuit.NodeID
}

// Compile levelizes and flattens the circuit.  Instructions are ordered
// by node level and, within a level, by topological position — a valid
// evaluation order because every fanin of a level-L gate lives at a
// strictly smaller level.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{c: c}
	maxLevel := c.MaxLevel()
	buckets := make([][]instr, maxLevel+1)
	for _, id := range c.TopoOrder() {
		n := c.Node(id)
		if n.IsInput {
			continue
		}
		buckets[n.Level] = append(buckets[n.Level], p.compileNode(id, n))
		if len(n.Fanin) > p.maxArity {
			p.maxArity = len(n.Fanin)
		}
	}
	p.instrs = make([]instr, 0, c.NumGates())
	p.levelOff = make([]int32, 1, maxLevel+2)
	for l := 1; l <= maxLevel; l++ {
		p.instrs = append(p.instrs, buckets[l]...)
		p.levelOff = append(p.levelOff, int32(len(p.instrs)))
	}
	p.at = make([]int32, c.NumNodes())
	for i := range p.at {
		p.at[i] = -1
	}
	p.order = make([]circuit.NodeID, len(p.instrs))
	for i, ins := range p.instrs {
		p.at[ins.out] = int32(i)
		p.order[i] = circuit.NodeID(ins.out)
	}
	return p
}

func (p *Program) compileNode(id circuit.NodeID, n *circuit.Node) instr {
	ins := instr{out: int32(id)}
	if n.Op == logic.TableOp {
		ins.op = opTable
		ins.tbl = int32(len(p.tables))
		p.tables = append(p.tables, n.Table)
		ins.a, ins.b = p.pushArgs(n.Fanin)
		return ins
	}
	switch len(n.Fanin) {
	case 0:
		switch n.Op {
		case logic.Const0:
			ins.op = opConst0
		case logic.Const1:
			ins.op = opConst1
		}
		return ins
	case 1:
		ins.a = int32(n.Fanin[0])
		switch n.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			ins.op = opBuf
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			ins.op = opNot
		}
		return ins
	case 2:
		ins.a, ins.b = int32(n.Fanin[0]), int32(n.Fanin[1])
		switch n.Op {
		case logic.And:
			ins.op = opAnd2
		case logic.Nand:
			ins.op = opNand2
		case logic.Or:
			ins.op = opOr2
		case logic.Nor:
			ins.op = opNor2
		case logic.Xor:
			ins.op = opXor2
		case logic.Xnor:
			ins.op = opXnor2
		}
		return ins
	}
	ins.a, ins.b = p.pushArgs(n.Fanin)
	switch n.Op {
	case logic.And:
		ins.op = opAndN
	case logic.Nand:
		ins.op = opNandN
	case logic.Or:
		ins.op = opOrN
	case logic.Nor:
		ins.op = opNorN
	case logic.Xor:
		ins.op = opXorN
	case logic.Xnor:
		ins.op = opXnorN
	}
	return ins
}

func (p *Program) pushArgs(fanin []circuit.NodeID) (off, n int32) {
	off = int32(len(p.args))
	for _, f := range fanin {
		p.args = append(p.args, int32(f))
	}
	return off, int32(len(fanin))
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *circuit.Circuit { return p.c }

// NumLevels returns the number of gate levels in the program.
func (p *Program) NumLevels() int { return len(p.levelOff) - 1 }
