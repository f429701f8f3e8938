package widesim

import (
	"fmt"
	"slices"

	"protest/internal/circuit"
)

// Sim evaluates a compiled Program over Lanes-block chunks.  It is the
// wide counterpart of bitsim.Simulator: one Vec per node, structure of
// arrays (lanes of one node contiguous), evaluated by a loop over the
// instruction stream (see exec).
//
// Its value array holds the two banks, the good values written by Run
// and the faulty values of one stem flip written by Propagate and
// Observe, then the constant slots and the slots of compiled Stems (see
// Program).
//
// A Sim holds only per-call scratch; the Program is immutable and
// shared.  Sim is not safe for concurrent use — pool instances instead.
type Sim struct {
	p      *Program
	values []Vec    // good bank, faulty bank, constant slots, Stems slots
	inbuf  []uint64 // per-lane pin scratch for table gates
}

// NewSim creates a simulator over the compiled program.
func NewSim(p *Program) *Sim {
	s := &Sim{}
	s.Reset(p, 0)
	return s
}

// Reset rebinds the simulator to another program with a value array of
// the program's banks and constant slots, or of slots vectors when that
// is more (Stems.Slots), reusing its array when large enough; nil
// detaches it.  It fills the constant slots; the banks are undefined
// until the next SetInputs and Run.
func (s *Sim) Reset(p *Program, slots int) {
	s.p = p
	if p == nil {
		return
	}
	n := max(int(p.fixed()), slots)
	s.values = slices.Grow(s.values[:0], n)[:n]
	s.values[p.ones()], s.values[p.zero()] = Ones(), Vec{}
	s.inbuf = slices.Grow(s.inbuf[:0], p.maxArity)[:p.maxArity]
}

// SetInputs assigns all inputs from a lane-major flat layout:
// words[i*Lanes+l] is lane l (pattern block l) of input i, the layout
// produced by pattern.Generator.NextBlocks.  It returns a typed error
// when the slice length does not match numInputs×Lanes.
func (s *Sim) SetInputs(words []uint64) error {
	if len(words) != len(s.p.c.Inputs)*Lanes {
		return fmt.Errorf("widesim: %d input words for %d inputs at %d lanes", len(words), len(s.p.c.Inputs), Lanes)
	}
	for i, id := range s.p.c.Inputs {
		s.values[id] = Vec(words[i*Lanes:])
	}
	return nil
}

// Run evaluates every gate in level order into the good bank.
func (s *Sim) Run() {
	s.exec(s.p.code, &s.p.stream)
}

// Propagate runs stream i of r, which must have been compiled against
// the simulator's program: it flips stem i over the good values of the
// last Run and writes the faulty values of the stem and its region into
// the faulty bank.  Faulty slots outside the region keep stale values;
// r.Outputs(i) names the outputs the stream writes.
func (s *Sim) Propagate(r *Regions, i int) {
	s.exec(r.code[r.off[i]:r.off[i+1]], &r.stream)
}

// Trace runs the trace of stem i of st, which must have been compiled
// against the simulator's program, over the good values of the last
// Run: it writes the lines of the stem's FFR.
func (s *Sim) Trace(st *Stems, i int) {
	s.exec(st.code[st.off[2*i]:st.off[2*i+1]], &st.stream)
}

// Observe runs the trace and the observation of stem i of st (see
// Stems): it writes the lines of the stem's FFR, faulty values of its
// region and its observability.  The observations of the stems further
// down its dominator chain must have run since the last Run.
func (s *Sim) Observe(st *Stems, i int) {
	s.exec(st.code[st.off[2*i]:st.off[2*i+2]], &st.stream)
}

// exec runs code, whose n-ary and table gates refer to st, over the
// value array, writing each result in place: with execAVX2 where the
// CPU has AVX2 and exec8 elsewhere.  Every slot code names is below
// st.slots, so the one check here stands for a bounds check on every
// access, which the assembly loop does not make.
func (s *Sim) exec(code []instr, st *stream) {
	if int(st.slots) > len(s.values) {
		panic(fmt.Sprintf("widesim: stream reads %d value slots, simulator has %d", st.slots, len(s.values)))
	}
	if hasAVX2 {
		execAVX2(s, code, st)
	} else {
		exec8(s, code, st)
	}
}

// evalSlow evaluates a table gate or an opTablePin, the instructions
// both evaluation loops leave to Go one lane at a time, so the loops
// stay small enough to stay in the instruction cache.
func (s *Sim) evalSlow(ins *instr, st *stream, d *Vec) {
	v := s.values
	switch op := ins.op(); op {
	case opTable:
		tbl := st.tables[st.args[ins.a]]
		pins := st.args[ins.a+1 : ins.a+1+ins.b]
		for l := range d {
			for i, f := range pins {
				s.inbuf[i] = v[f][l]
			}
			d[l] = tbl.EvalWord(s.inbuf[:len(pins)])
		}
	case opTablePin:
		a := st.args[ins.a : ins.a+4]
		tbl, pin, gate, line := st.tables[a[0]], a[1], &v[a[2]], &v[a[3]]
		pins := st.args[ins.a+4 : ins.a+4+ins.b]
		for l := range d {
			for i, f := range pins {
				s.inbuf[i] = v[f][l]
			}
			s.inbuf[pin] = ^s.inbuf[pin]
			d[l] = (tbl.EvalWord(s.inbuf[:len(pins)]) ^ gate[l]) & line[l]
		}
	default:
		panic(fmt.Sprintf("widesim: bad opcode %d", op))
	}
}

// Value returns the simulated lane vector of a node.
func (s *Sim) Value(id circuit.NodeID) Vec { return s.values[id] }

// Faulty returns the faulty bank (one lane vector per node), valid
// where the last Propagate or Observe wrote it.
func (s *Sim) Faulty() []Vec {
	n := s.p.c.NumNodes()
	return s.values[n : 2*n : 2*n]
}

// Slots returns the whole value array: the two banks, the constant
// slots and the slots of compiled Stems, which Stems.Line and Stems.Obs
// index.
func (s *Sim) Slots() []Vec { return s.values }
