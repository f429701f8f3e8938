package circuits

import (
	"fmt"

	"protest/internal/circuit"
	"protest/internal/logic"
	"protest/internal/pattern"
)

// RandomOptions parameterizes random circuit generation for the scaling
// experiments (Tables 7 and 8 of the paper use circuits from 368 to
// ~48000 transistors).
type RandomOptions struct {
	Inputs  int
	Gates   int
	Outputs int
	Seed    uint64
	// MaxArity bounds gate fan-in (default 3).
	MaxArity int
	// Locality biases fanin selection toward recent nodes, producing
	// deep circuits with local reconvergence (default 32).
	Locality int
}

// Random generates a pseudo-random combinational circuit.  Every gate
// draws its fanin from previously created nodes, so the result is
// acyclic; every non-output sink is promoted to a primary output so the
// circuit is fully observable.
func Random(opt RandomOptions) *circuit.Circuit {
	if opt.Inputs < 2 {
		opt.Inputs = 2
	}
	if opt.Gates < 1 {
		opt.Gates = 1
	}
	if opt.MaxArity < 2 {
		opt.MaxArity = 3
	}
	if opt.Locality <= 0 {
		opt.Locality = 32
	}
	if opt.Outputs < 1 {
		opt.Outputs = 1 + opt.Gates/20
	}
	rng := pattern.NewRNG(opt.Seed)
	b := circuit.NewBuilder(fmt.Sprintf("rand_i%d_g%d_s%d", opt.Inputs, opt.Gates, opt.Seed))
	nodes := b.InputBus("I", opt.Inputs)
	used := make(map[circuit.NodeID]bool)
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	for g := 0; g < opt.Gates; g++ {
		op := ops[rng.Uint64()%uint64(len(ops))]
		arity := 1
		if op != logic.Not {
			arity = 2 + int(rng.Uint64()%uint64(opt.MaxArity-1))
		}
		fanin := make([]circuit.NodeID, arity)
		for i := range fanin {
			// Prefer recent nodes for locality.
			var idx int
			if rng.Uint64()%4 != 0 && len(nodes) > opt.Locality {
				idx = len(nodes) - 1 - int(rng.Uint64()%uint64(opt.Locality))
			} else {
				idx = int(rng.Uint64() % uint64(len(nodes)))
			}
			fanin[i] = nodes[idx]
			used[nodes[idx]] = true
		}
		id := b.Gate(op, fmt.Sprintf("g%d", g), fanin...)
		nodes = append(nodes, id)
	}
	// Promote every sink gate to a primary output, plus random extra
	// outputs until the requested count is reached.
	outputs := 0
	for _, id := range nodes[opt.Inputs:] {
		if !used[id] {
			b.MarkOutput(id)
			outputs++
		}
	}
	for attempts := 0; outputs < opt.Outputs && attempts < 10*opt.Gates; attempts++ {
		id := nodes[opt.Inputs+int(rng.Uint64()%uint64(opt.Gates))]
		if !used[id] {
			continue // already an output
		}
		b.MarkOutput(id)
		used[id] = false
		outputs++
	}
	c, err := b.Build()
	if err != nil {
		panic("circuits: random: " + err.Error())
	}
	return c
}

// Tables returns a small reconvergent circuit of truth-table cells
// (majority and multiplexer) mixed with constant, Buf, Not, 2-input and
// n-ary gates.  No registry circuit has a table gate or a constant, and
// the netlist format cannot carry a truth table, so the simulators'
// tests use it to cover their table and constant paths.
func Tables() *circuit.Circuit {
	maj, _ := logic.TableFromFunc(3, func(in []bool) bool {
		return in[0] && in[1] || in[1] && in[2] || in[0] && in[2]
	})
	mux, _ := logic.TableFromFunc(3, func(in []bool) bool {
		if in[0] {
			return in[2]
		}
		return in[1]
	})
	b := circuit.NewBuilder("tables")
	x := b.InputBus("x", 8)
	k0 := b.Gate(logic.Const0, "k0")
	k1 := b.Gate(logic.Const1, "k1")
	m0 := b.TableGate("m0", maj, x[0], x[1], x[2])
	m1 := b.TableGate("m1", maj, x[2], x[3], x[4])
	s0 := b.TableGate("s0", mux, x[5], m0, m1)
	a0 := b.And("a0", m0, x[6], k1)
	s1 := b.TableGate("s1", mux, b.Not("n0", m1), x[7], a0)
	r0 := b.Nor("r0", k0, s1, x[0])
	o2 := b.Or("o2", m0, s1, x[3])
	b.MarkOutputs(
		b.Xor("o0", s0, a0),
		o2,
		b.Buf("o3", r0),
		b.TableGate("o1", maj, o2, r0, x[1]),
	)
	c, err := b.Build()
	if err != nil {
		panic("circuits: tables: " + err.Error())
	}
	return c
}
