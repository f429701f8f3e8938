package widesim

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/pattern"
)

// TestAVX2MatchesExec8 runs the assembly loop (with its Go resumption
// at table gates) and the Go loop exec8 on copies of one value array,
// over the good program and every stem's fanout-cone stream, and
// requires identical words in both banks after every stream.  The
// random circuits carry every n-ary form at 3 to 9 pins (see
// TestWideMatchesNarrow); circuits.Tables adds table gates and
// constants.  Its program starts with the constants and then two table
// gates in a row, and ends with a table gate, so it covers every place
// where the assembly loop stops and resumes around a table gate.
// Every slot starts random, so each lane of each operand is exercised.
func TestAVX2MatchesExec8(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 (or the OS does not save YMM state): Sim[B8] runs exec8 only, so there is nothing to compare")
	}
	cs := []*circuit.Circuit{circuits.Tables()}
	for seed := uint64(1); seed <= 3; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{Inputs: 16, Gates: 200, Seed: seed, MaxArity: 9}))
	}
	for _, c := range cs {
		p := Compile(c)
		asm, ref := NewSim[B8](p), NewSim[B8](p)
		rng := pattern.NewRNG(7)
		for i := range asm.values {
			for l := range asm.values[i] {
				asm.values[i][l] = rng.Uint64()
			}
		}
		copy(ref.values, asm.values)
		check := func(what string, code []instr, st *stream) {
			t.Helper()
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
		var stems []circuit.NodeID
		var cones [][]circuit.NodeID
		for id := range c.Nodes {
			if len(c.Nodes[id].Fanout) > 0 {
				stems = append(stems, circuit.NodeID(id))
				cones = append(cones, c.FanoutCone(circuit.NodeID(id)))
			}
		}
		r := p.CompileRegions(stems, cones)
		for i, s := range stems {
			check("stem "+c.Node(s).Name, r.code[r.off[i]:r.off[i+1]], &r.stream)
		}
	}
}
