package widesim

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/pattern"
)

// TestAVX2MatchesExec8 runs the assembly loop (with its Go resumption
// at table gates) and the Go loop exec8 on copies of one value array,
// over the good program, every stem's fanout-cone stream and every
// stream of the circuit's compiled Stems (each stem's trace and its
// observation: region and composition), and requires identical words
// in every slot after every stream.  The random circuits carry every
// n-ary form at 3 to 9 pins (see TestWideMatchesNarrow) and every
// per-stem form but opTablePin; circuits.Tables adds table gates,
// their pin differences and constants.  Its program starts with the
// constants and then two table gates in a row, and ends with a table
// gate, so it covers every place where the assembly loop stops and
// resumes around a table gate.  Every slot but the two constants starts
// random, so each lane of each operand is exercised.
func TestAVX2MatchesExec8(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or the OS does not save YMM state): Sim runs exec8 only, so there is nothing to compare")
	}
	cs := []*circuit.Circuit{circuits.Tables()}
	for seed := uint64(1); seed <= 3; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{Inputs: 16, Gates: 200, Seed: seed, MaxArity: 9}))
	}
	seen := map[opcode]bool{}
	for _, c := range cs {
		p := Compile(c)
		stems := p.CompileStems()
		asm, ref := NewSim(p), NewSim(p)
		asm.Reset(p, stems.Slots())
		ref.Reset(p, stems.Slots())
		rng := pattern.NewRNG(7)
		for i := range asm.values {
			if i == int(p.ones()) || i == int(p.zero()) {
				continue
			}
			for l := range asm.values[i] {
				asm.values[i][l] = rng.Uint64()
			}
		}
		copy(ref.values, asm.values)
		check := func(what string, code []instr, st *stream) {
			t.Helper()
			for i := range code {
				seen[code[i].op()] = true
			}
			execAVX2(asm, code, st)
			exec8(ref, code, st)
			for slot := range asm.values {
				if asm.values[slot] != ref.values[slot] {
					t.Fatalf("%s, %s: slot %d: assembly %016x, exec8 %016x",
						c.Name, what, slot, asm.values[slot], ref.values[slot])
				}
			}
		}
		check("good program", p.code, &p.stream)
		var roots []circuit.NodeID
		var cones [][]circuit.NodeID
		for id := range c.Nodes {
			if len(c.Nodes[id].Fanout) > 0 {
				roots = append(roots, circuit.NodeID(id))
				cones = append(cones, c.FanoutCone(circuit.NodeID(id)))
			}
		}
		r := p.compileRegions(roots, cones)
		for i, s := range roots {
			check("cone of "+c.Node(s).Name, r.code[r.off[i]:r.off[i+1]], &r.stream)
		}
		for i := len(c.FFR().Stems) - 1; i >= 0; i-- {
			name := c.Node(c.FFR().Stems[i]).Name
			check("trace of "+name, stems.code[stems.off[2*i]:stems.off[2*i+1]], &stems.stream)
			check("observation of "+name, stems.code[stems.off[2*i+1]:stems.off[2*i+2]], &stems.stream)
		}
	}
	for _, op := range []opcode{opAndN, opNorN, opAndNot2, opOrXorN, opTable, opTablePin} {
		if !seen[op] {
			t.Errorf("no stream ran opcode %d", op)
		}
	}
}
