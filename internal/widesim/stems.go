package widesim

import (
	"fmt"
	"slices"

	"protest/internal/circuit"
	"protest/internal/logic"
)

// Stems is the compiled per-stem work of the FFR fault simulator
// (package faultsim) over one circuit: two instruction streams per
// stem of the circuit's fanout-free regions (circuit.FFR), which run
// over the value array of a Sim of the Program they were compiled
// against.
//
//   - The trace of stem i (Sim.Trace) critical-path-traces the stem's
//     FFR backwards from the stem.  It writes the line of every member
//     node and gate pin: the patterns on which a flip of that line alone
//     flips the stem.  Inside an FFR there is a single path and no
//     reconvergence, so the trace is exact.  It reads only the good bank
//     and the lines of its own FFR.
//   - The observation of stem i (Sim.Observe runs it after the trace)
//     flips the stem through its region, bounded by the stem's immediate
//     dominator, into the faulty bank, as Regions do.  It then composes
//     the stem's observability, the patterns on which a flip of the stem
//     reaches a primary output.  Beyond a real dominator d the deviation
//     is a flip of d, so the observability is (faulty d ^ good d) &
//     line(d) & obs(FFR of d).  For the virtual sink it is the OR, over
//     the outputs of the region, of faulty ^ good (opOrXorN).
//
// Line and observability slots follow the constant slots of the value
// array.  A line that needs no instruction shares a slot.  The stem's
// line is the all-ones slot.  Every pin of a Buf, Not, Xor, Xnor or
// one-pin gate shares the gate's line, and each pin of a two-pin And or
// Nand whose line is all ones shares the good slot of the other fanin.
// An in-FFR fanin's node line is its pin's line.  An output stem's
// observability is the all-ones slot and an unobservable stem's the
// all-zero slot; neither has observation code.
//
// A composition reads the line and observability slots of FFRs further
// down, so a stem's observation must run after the observation of the
// FFR of its dominator, which has a higher index: the fault simulator
// runs the stems it needs in descending order.
//
// Stems are immutable and, like their Program, shared by any number of
// Sims.
type Stems struct {
	stream
	off    []int32 // stem i's trace is code[off[2i]:off[2i+1]], its observation code[off[2i+1]:off[2i+2]]
	pinOff []int32 // pin p of node id has line pinOff[id]+p; node id has line id
	line   []int32 // value slot of every line
	obs    []int32 // value slot of every stem's observability
}

// CompileStems compiles the trace and observation of every stem of the
// program's circuit (see Stems).
func (p *Program) CompileStems() *Stems {
	c := p.c
	ffr := c.FFR()
	nn := int32(c.NumNodes())
	ones, zero := p.ones(), p.zero()
	st := &Stems{pinOff: make([]int32, nn), obs: make([]int32, len(ffr.Stems))}
	lines := nn
	for id := range c.Nodes {
		st.pinOff[id] = lines
		lines += int32(len(c.Nodes[id].Fanin))
	}
	st.line = make([]int32, lines)
	st.slots = p.fixed()
	slot := func() int32 {
		st.slots++
		return st.slots - 1
	}

	// Every FFR's slots first: a composition reads the line and
	// observability slots of FFRs further down.
	for si, s := range ffr.Stems {
		st.line[s] = ones
		for _, id := range ffr.Members[si] {
			n := &c.Nodes[id]
			for pin, f := range n.Fanin {
				l := sharedLine(n, pin, st.line[id], ones)
				if l < 0 {
					l = slot()
				}
				st.line[st.pinOff[id]+int32(pin)] = l
				if ffr.StemIndex[f] == int32(si) {
					st.line[f] = l
				}
			}
		}
		switch {
		case c.Node(s).IsOutput:
			st.obs[si] = ones
		case ffr.Idom[s] == circuit.InvalidNode:
			st.obs[si] = zero
		default:
			st.obs[si] = slot()
		}
	}

	faulty := make([]bool, nn)
	var region []circuit.NodeID
	st.off = make([]int32, 1, 2*len(ffr.Stems)+1)
	for si, s := range ffr.Stems {
		for _, id := range ffr.Members[si] {
			n := &c.Nodes[id]
			for pin := range n.Fanin {
				st.tracePin(n, id, pin, ones)
			}
		}
		st.off = append(st.off, int32(len(st.code)))
		if o := st.obs[si]; o != ones && o != zero {
			d := ffr.Idom[s]
			stop := d
			if d == circuit.DomSink {
				stop = circuit.InvalidNode
			}
			region = cone(c, s, stop, faulty, region[:0])
			st.region(c, s, region, faulty)
			mark(faulty, s, region, false)
			if d == circuit.DomSink {
				st.observeSink(c, s, region, o)
			} else {
				// The dominator is a cut: it terminates every
				// propagation path, so the stem must reach it.
				if len(region) == 0 || region[len(region)-1] != d {
					panic(fmt.Sprintf("widesim: region of stem %d does not reach dominator %d", s, d))
				}
				st.put(opXor2, o, nn+int32(d), int32(d))
				terms := []int32{o}
				for _, t := range []int32{st.line[d], st.obs[ffr.StemIndex[d]]} {
					if t != ones {
						terms = append(terms, t)
					}
				}
				if len(terms) > 1 {
					st.gate(logic.And, nil, o, terms)
				}
			}
		}
		st.off = append(st.off, int32(len(st.code)))
	}
	// Stems live as long as their circuit: drop append's spare capacity.
	st.code, st.args = slices.Clone(st.code), slices.Clone(st.args)
	return st
}

// sharedLine returns the slot whose vector is the line of pin pin of
// gate n when the gate's own line is in slot gate, or -1 when the pin
// needs a slot and an instruction of its own.
func sharedLine(n *circuit.Node, pin int, gate, ones int32) int32 {
	switch {
	case n.Op == logic.TableOp:
		return -1
	case len(n.Fanin) == 1, n.Op == logic.Buf, n.Op == logic.Not, n.Op == logic.Xor, n.Op == logic.Xnor:
		return gate
	case (n.Op == logic.And || n.Op == logic.Nand) && len(n.Fanin) == 2 && gate == ones:
		return int32(n.Fanin[1-pin])
	}
	return -1
}

// tracePin appends the instruction that writes the line of pin pin of
// member gate n (node id), unless the line shares a slot: the patterns
// on which a flip of that pin alone flips the gate, with every other
// pin at its good value, ANDed with the gate's own line.  For And and
// Nand that is the AND of the other fanins, for Or and Nor the NOR, and
// for a table gate the boolean difference, which Go evaluates.
func (st *Stems) tracePin(n *circuit.Node, id circuit.NodeID, pin int, ones int32) {
	gate := st.line[id]
	if sharedLine(n, pin, gate, ones) >= 0 {
		return
	}
	out := st.line[st.pinOff[id]+int32(pin)]
	others := make([]int32, 0, len(n.Fanin))
	for i, f := range n.Fanin {
		if i != pin {
			others = append(others, int32(f))
		}
	}
	switch n.Op {
	case logic.And, logic.Nand:
		if gate != ones {
			others = append(others, gate)
		}
		st.gate(logic.And, nil, out, others)
	case logic.Or, logic.Nor:
		switch {
		case len(others) == 1:
			st.put(opAndNot2, out, others[0], gate)
		case gate == ones:
			st.gate(logic.Nor, nil, out, others)
		default:
			st.gate(logic.Or, nil, out, others)
			st.put(opAndNot2, out, out, gate)
		}
	default:
		st.put(opTablePin, out, int32(len(st.args)), int32(len(n.Fanin)))
		st.args = append(st.args, int32(len(st.tables)), int32(pin), int32(id), gate)
		for _, f := range n.Fanin {
			st.args = append(st.args, int32(f))
		}
		st.tables = append(st.tables, n.Table)
	}
}

// observeSink appends the composition of a sink-dominated stem s into
// slot o: the OR, over the primary outputs of its region, of faulty ^
// good.  Outputs outside the region keep their good values.
func (st *Stems) observeSink(c *circuit.Circuit, s circuit.NodeID, region []circuit.NodeID, o int32) {
	nn := int32(c.NumNodes())
	var pairs []int32
	for _, id := range region {
		if c.Nodes[id].IsOutput {
			pairs = append(pairs, nn+int32(id), int32(id))
		}
	}
	switch len(pairs) {
	case 0:
		panic(fmt.Sprintf("widesim: sink-dominated stem %d reaches no output", s))
	case 2:
		st.put(opXor2, o, pairs[0], pairs[1])
	default:
		st.nary(opOrXorN, o, pairs...)
	}
}

// Slots returns the length of the value array the streams need: a Sim
// that runs them must have been Reset with at least this many slots.
func (st *Stems) Slots() int { return int(st.slots) }

// Line returns the value slot of a line: pin pin of node id, or, for a
// negative pin, the node's own output.
func (st *Stems) Line(id circuit.NodeID, pin int) int32 {
	if pin < 0 {
		return st.line[id]
	}
	return st.line[st.pinOff[id]+int32(pin)]
}

// Obs returns the value slot of the observability of stem i.
func (st *Stems) Obs(i int) int32 { return st.obs[i] }
