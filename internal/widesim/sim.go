package widesim

import (
	"fmt"
	"slices"

	"protest/internal/circuit"
)

// Sim evaluates a compiled Program over W-lane blocks.  It is the wide
// counterpart of bitsim.Simulator: one B value per node, structure of
// arrays (lanes of one node contiguous), evaluated by a single switch-
// dispatched loop over the instruction stream.
//
// A Sim holds only per-call scratch; the Program is immutable and
// shared.  Sim is not safe for concurrent use — pool instances instead.
type Sim[B Block] struct {
	p      *Program
	values []B
	inbuf  []uint64 // per-lane pin scratch for table gates
}

// NewSim creates a simulator of width B over the compiled program.
func NewSim[B Block](p *Program) *Sim[B] {
	s := &Sim[B]{}
	s.Reset(p)
	return s
}

// Reset rebinds the simulator to another program, reusing its value
// array when large enough; nil detaches it.  Values are undefined until
// the next SetInputs and Run.
func (s *Sim[B]) Reset(p *Program) {
	s.p = p
	if p == nil {
		return
	}
	n := p.c.NumNodes()
	s.values = slices.Grow(s.values[:0], n)[:n]
	s.inbuf = slices.Grow(s.inbuf[:0], p.maxArity)[:p.maxArity]
}

// Program returns the compiled program the simulator runs.
func (s *Sim[B]) Program() *Program { return s.p }

// Width returns the simulation width W in 64-pattern lanes.
func (s *Sim[B]) Width() int { return Lanes[B]() }

// SetInput assigns the lane vector of primary input index i.
func (s *Sim[B]) SetInput(i int, v B) {
	s.values[s.p.c.Inputs[i]] = v
}

// SetInputs assigns all inputs from a lane-major flat layout:
// words[i*W+l] is lane l (pattern block l) of input i, the layout
// produced by pattern.Generator.NextBlocks.  It returns a typed error
// when the slice length does not match numInputs×W.
func (s *Sim[B]) SetInputs(words []uint64) error {
	w := Lanes[B]()
	if len(words) != len(s.p.c.Inputs)*w {
		return fmt.Errorf("widesim: %d input words for %d inputs at width %d", len(words), len(s.p.c.Inputs), w)
	}
	for i, id := range s.p.c.Inputs {
		s.values[id] = Load[B](words[i*w:])
	}
	return nil
}

// Run evaluates every gate in level order.
func (s *Sim[B]) Run() {
	s.EvalNodes(s.p.order, s.values)
}

// EvalNodes evaluates the gates nodes, in the order given, over values
// instead of the simulator's own array: each gate reads its fanins from
// values and overwrites its own entry there.  The order must be
// topological for the nodes' mutual dependencies (ascending node IDs
// are); every other fanin is read as it stands.  Run is EvalNodes over
// all gates, so a subset evaluates bit-identically to a full run.
func (s *Sim[B]) EvalNodes(nodes []circuit.NodeID, values []B) {
	instrs, at := s.p.instrs, s.p.at
	for _, id := range nodes {
		ins := &instrs[at[id]]
		var v B
		switch ins.op {
		case opBuf:
			v = values[ins.a]
		case opNot:
			v = Not(values[ins.a])
		case opAnd2:
			v = And(values[ins.a], values[ins.b])
		case opNand2:
			v = Not(And(values[ins.a], values[ins.b]))
		case opOr2:
			v = Or(values[ins.a], values[ins.b])
		case opNor2:
			v = Not(Or(values[ins.a], values[ins.b]))
		case opXor2:
			v = Xor(values[ins.a], values[ins.b])
		case opXnor2:
			v = Not(Xor(values[ins.a], values[ins.b]))
		case opConst0:
			// v stays zero.
		case opConst1:
			v = Not(v)
		default:
			v = s.evalSlow(ins, values)
		}
		values[id] = v
	}
}

// evalSlow handles n-ary and table gates, kept out of EvalNodes so the
// hot loop stays small enough to stay in the instruction cache.
func (s *Sim[B]) evalSlow(ins *instr, values []B) B {
	pins := s.p.args[ins.a : ins.a+ins.b]
	switch ins.op {
	case opAndN, opNandN:
		v := values[pins[0]]
		for _, f := range pins[1:] {
			v = And(v, values[f])
		}
		if ins.op == opNandN {
			v = Not(v)
		}
		return v
	case opOrN, opNorN:
		v := values[pins[0]]
		for _, f := range pins[1:] {
			v = Or(v, values[f])
		}
		if ins.op == opNorN {
			v = Not(v)
		}
		return v
	case opXorN, opXnorN:
		v := values[pins[0]]
		for _, f := range pins[1:] {
			v = Xor(v, values[f])
		}
		if ins.op == opXnorN {
			v = Not(v)
		}
		return v
	case opTable:
		tbl := s.p.tables[ins.tbl]
		var v B
		for l := 0; l < len(v); l++ {
			for i, f := range pins {
				s.inbuf[i] = values[f][l]
			}
			v[l] = tbl.EvalWord(s.inbuf[:len(pins)])
		}
		return v
	}
	panic(fmt.Sprintf("widesim: bad opcode %d", ins.op))
}

// Value returns the simulated lane vector of a node.
func (s *Sim[B]) Value(id circuit.NodeID) B { return s.values[id] }

// Values returns the raw value array (one lane vector per node).  It is
// invalidated by the next Run.
func (s *Sim[B]) Values() []B { return s.values }

// OutputLanes copies the output vectors into dst in lane-major layout:
// dst[i*W+l] is lane l of output i.  dst must have numOutputs×W words.
func (s *Sim[B]) OutputLanes(dst []uint64) {
	w := Lanes[B]()
	for i, id := range s.p.c.Outputs {
		Store(s.values[id], dst[i*w:(i+1)*w])
	}
}
