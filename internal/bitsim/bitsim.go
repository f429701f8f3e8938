// Package bitsim implements bit-parallel (64 patterns per machine word)
// logic simulation of combinational circuits.  It is the workhorse under
// the fault simulator, the exact probability computation and the
// Monte-Carlo reference estimator.
package bitsim

import (
	"fmt"

	"protest/internal/circuit"
	"protest/internal/logic"
)

// Simulator evaluates one circuit on blocks of 64 patterns.
type Simulator struct {
	c      *circuit.Circuit
	values []uint64 // one word per node
	inbuf  [][]uint64
}

// New creates a simulator for the circuit.
func New(c *circuit.Circuit) *Simulator {
	s := &Simulator{c: c, values: make([]uint64, c.NumNodes())}
	s.inbuf = make([][]uint64, 0, 8)
	return s
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// SetInput assigns the pattern word of primary input index i (position
// in Circuit.Inputs).  Bit b of the word is the value in pattern b.
func (s *Simulator) SetInput(i int, w uint64) {
	s.values[s.c.Inputs[i]] = w
}

// InputLengthError reports a SetInputs call whose word count does not
// match the circuit's input count.
type InputLengthError struct {
	Got, Want int
}

func (e *InputLengthError) Error() string {
	return fmt.Sprintf("bitsim: %d input words for %d inputs", e.Got, e.Want)
}

// SetInputs assigns all input words at once.  A length mismatch returns
// an *InputLengthError and assigns nothing — a typed error rather than
// a panic, so service boundaries that accept caller-supplied vectors
// can reject bad lengths without a recover layer.
func (s *Simulator) SetInputs(words []uint64) error {
	if len(words) != len(s.c.Inputs) {
		return &InputLengthError{Got: len(words), Want: len(s.c.Inputs)}
	}
	for i, w := range words {
		s.values[s.c.Inputs[i]] = w
	}
	return nil
}

// Run evaluates every gate in topological order.
func (s *Simulator) Run() {
	nodes := s.c.Nodes
	for _, id := range s.c.TopoOrder() {
		n := &nodes[id]
		if n.IsInput {
			continue
		}
		s.values[id] = s.evalNode(n)
	}
}

func (s *Simulator) evalNode(n *circuit.Node) uint64 {
	// Fast paths for 1- and 2-input gates.
	switch len(n.Fanin) {
	case 1:
		v := s.values[n.Fanin[0]]
		switch n.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			return v
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			return ^v
		}
	case 2:
		a, b := s.values[n.Fanin[0]], s.values[n.Fanin[1]]
		switch n.Op {
		case logic.And:
			return a & b
		case logic.Nand:
			return ^(a & b)
		case logic.Or:
			return a | b
		case logic.Nor:
			return ^(a | b)
		case logic.Xor:
			return a ^ b
		case logic.Xnor:
			return ^(a ^ b)
		}
	}
	in := s.gatherInputs(n)
	if n.Op == logic.TableOp {
		return n.Table.EvalWord(in)
	}
	return logic.EvalWord(n.Op, in)
}

func (s *Simulator) gatherInputs(n *circuit.Node) []uint64 {
	for len(s.inbuf) <= len(n.Fanin) {
		s.inbuf = append(s.inbuf, make([]uint64, len(s.inbuf)))
	}
	buf := s.inbuf[len(n.Fanin)]
	for i, f := range n.Fanin {
		buf[i] = s.values[f]
	}
	return buf
}

// Value returns the simulated word of a node.
func (s *Simulator) Value(id circuit.NodeID) uint64 { return s.values[id] }

// Values returns the raw value array (one word per node).  Callers may
// read it between Run calls; it is invalidated by the next Run.
func (s *Simulator) Values() []uint64 { return s.values }

// OutputWords copies the output values into dst (len == #outputs).
func (s *Simulator) OutputWords(dst []uint64) {
	for i, id := range s.c.Outputs {
		dst[i] = s.values[id]
	}
}

// Exhaustive enumerates all 2^n assignments of n inputs (n <= 30
// enforced) in blocks of 64 patterns: pattern b of block k assigns
// input i the i-th bit of the global index k*64+b.  visit receives the
// block's input words (one per input; the slice is reused across
// calls), its base index and its number of valid patterns (64 except
// possibly the last).
func Exhaustive(n int, visit func(words []uint64, base uint64, valid int)) error {
	if n > 30 {
		return fmt.Errorf("bitsim: exhaustive enumeration of %d inputs refused (limit 30)", n)
	}
	words := make([]uint64, n)
	total := uint64(1) << n
	for base := uint64(0); base < total; base += 64 {
		for i := range words {
			words[i] = enumWord(base, i)
		}
		visit(words, base, int(min(total-base, 64)))
	}
	return nil
}

// EnumerateExhaustive runs the circuit over every block of Exhaustive
// for its inputs and calls visit after each, with the block's base
// index and number of valid patterns; Values then holds the block.
func (s *Simulator) EnumerateExhaustive(visit func(base uint64, valid int)) error {
	return Exhaustive(len(s.c.Inputs), func(words []uint64, base uint64, valid int) {
		for i, w := range words {
			s.SetInput(i, w)
		}
		s.Run()
		visit(base, valid)
	})
}

// enumWord returns the word for input i when patterns base..base+63
// enumerate input assignments by their binary representation.
func enumWord(base uint64, i int) uint64 {
	if i >= 6 {
		// Bit i is constant across the block.
		if base>>uint(i)&1 == 1 {
			return ^uint64(0)
		}
		return 0
	}
	// Bits 0..5 cycle within a block; precomputed masks.
	return enumMasks[i]
}

// enumMasks[i] has bit b set iff b>>i&1 == 1, for i in 0..5.
var enumMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// EvalSingle evaluates the circuit on one boolean input assignment and
// returns the output values.  Convenient for functional tests.
func EvalSingle(c *circuit.Circuit, in []bool) []bool {
	s := New(c)
	for i, b := range in {
		if b {
			s.SetInput(i, 1)
		} else {
			s.SetInput(i, 0)
		}
	}
	s.Run()
	out := make([]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		out[i] = s.Value(id)&1 == 1
	}
	return out
}
