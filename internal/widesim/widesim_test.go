package widesim_test

import (
	"fmt"
	"strings"
	"testing"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/logic"
	"protest/internal/pattern"
	"protest/internal/widesim"
)

// runNarrow produces the oracle value matrix: blocks × nodes, one word
// per node per 64-pattern block, from the narrow bitsim simulator.
func runNarrow(t *testing.T, c *circuit.Circuit, seed uint64, blocks int) [][]uint64 {
	t.Helper()
	gen := pattern.NewUniform(len(c.Inputs), seed)
	sim := bitsim.New(c)
	in := make([]uint64, len(c.Inputs))
	out := make([][]uint64, blocks)
	for b := range out {
		gen.NextBlock(in)
		sim.SetInputs(in)
		sim.Run()
		vals := make([]uint64, c.NumNodes())
		copy(vals, sim.Values())
		out[b] = vals
	}
	return out
}

func checkWide(t *testing.T, c *circuit.Circuit, seed uint64, want [][]uint64) {
	t.Helper()
	const w = widesim.Lanes
	sim := widesim.NewSim(widesim.Compile(c))
	gen := pattern.NewUniform(len(c.Inputs), seed)
	in := make([]uint64, len(c.Inputs)*w)
	for base := 0; base < len(want); base += w {
		k := min(w, len(want)-base)
		gen.NextBlocks(in, w, k)
		if err := sim.SetInputs(in); err != nil {
			t.Fatalf("SetInputs: %v", err)
		}
		sim.Run()
		for id := 0; id < c.NumNodes(); id++ {
			v := sim.Value(circuit.NodeID(id))
			for l := 0; l < k; l++ {
				if got, exp := v[l], want[base+l][id]; got != exp {
					t.Fatalf("block %d node %d (%s): got %016x want %016x",
						base+l, id, c.Node(circuit.NodeID(id)).Name, got, exp)
				}
			}
			for l := k; l < w; l++ {
				// Spare lanes run the all-zero pattern block; no
				// particular value is required, only determinism —
				// but inputs must be zero by the NextBlocks contract.
				if c.Node(circuit.NodeID(id)).IsInput && v[l] != 0 {
					t.Fatalf("spare input lane %d not zeroed", l)
				}
			}
		}
	}
}

// TestWideMatchesNarrow pins the wide node values bit-identical to the
// bitsim oracle on every registry circuit, including the ragged final
// chunk (blocks not a multiple of Lanes).  No registry circuit has an
// n-ary Nand, Xor or Xnor gate, so random circuits with up to 9 pins
// per gate cover every n-ary opcode at every pin count from 3 to 9.
// No registry circuit has a table gate or a constant either, so
// circuits.Tables pins the assembly loop's stop and resume at table
// gates, and the constants, to the oracle.
func TestWideMatchesNarrow(t *testing.T) {
	check := func(name string, c *circuit.Circuit) {
		t.Run(name, func(t *testing.T) {
			const seed, blocks = 12345, 11 // 11 ≡ 3 mod 8: a ragged last chunk
			checkWide(t, c, seed, runNarrow(t, c, seed, blocks))
		})
	}
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		check(name, c)
	}
	check("tables", circuits.Tables())
	nary := map[logic.Op]map[int]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		c := circuits.Random(circuits.RandomOptions{Inputs: 16, Gates: 200, Seed: seed, MaxArity: 9})
		for _, n := range c.Nodes {
			if len(n.Fanin) > 2 {
				if nary[n.Op] == nil {
					nary[n.Op] = map[int]bool{}
				}
				nary[n.Op][len(n.Fanin)] = true
			}
		}
		check(c.Name, c)
	}
	for _, op := range []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor} {
		for pins := 3; pins <= 9; pins++ {
			if !nary[op][pins] {
				t.Errorf("no random circuit has a %d-pin %v gate", pins, op)
			}
		}
	}
}

// TestNextBlocksStream pins the wide fill to the narrow random stream:
// k lanes of NextBlocks consume and produce exactly the words of k
// NextBlock calls.
func TestNextBlocksStream(t *testing.T) {
	const n, seed = 7, 4242
	ref := pattern.NewUniform(n, seed)
	wide := pattern.NewUniform(n, seed)

	var refWords [][]uint64
	buf := make([]uint64, n)
	for b := 0; b < 13; b++ {
		ref.NextBlock(buf)
		cp := make([]uint64, n)
		copy(cp, buf)
		refWords = append(refWords, cp)
	}

	in := make([]uint64, n*8)
	base := 0
	for _, k := range []int{8, 3, 2} { // 13 blocks as ragged chunks
		wide.NextBlocks(in, 8, k)
		for l := 0; l < k; l++ {
			for i := 0; i < n; i++ {
				if in[i*8+l] != refWords[base+l][i] {
					t.Fatalf("chunk base %d lane %d input %d diverges from narrow stream", base, l, i)
				}
			}
		}
		for i := 0; i < n; i++ {
			for l := k; l < 8; l++ {
				if in[i*8+l] != 0 {
					t.Fatalf("trailing lane %d of input %d not zeroed", l, i)
				}
			}
		}
		base += k
	}

	// And the generators stay aligned afterwards.
	refNext := make([]uint64, n)
	wideNext := make([]uint64, n)
	ref.NextBlock(refNext)
	wide.NextBlock(wideNext)
	for i := range refNext {
		if refNext[i] != wideNext[i] {
			t.Fatalf("generator state diverged after wide fills")
		}
	}
}

// TestStreamSlotsChecked: the assembly loop makes no bounds checks, so
// every evaluation checks a stream's largest value slot against the
// simulator's value array once per call.  A fanout-cone stream and a
// stem observation compiled against mult, run on a simulator of c17,
// must panic there rather than read or write past the array, and so
// must the first stem observation of c17's own Stems on a simulator
// sized for c17's program alone, whose value array ends before the
// line and observability slots.
func TestStreamSlotsChecked(t *testing.T) {
	big, _ := circuits.Lookup("mult")
	small, _ := circuits.Lookup("c17")
	bigProg, p := widesim.Compile(big), widesim.Compile(small)
	cones, bigStems, stems := bigProg.CompileCones(), bigProg.CompileStems(), p.CompileStems()
	last := len(big.FFR().Stems) - 1
	for name, run := range map[string]func(*widesim.Sim){
		"mult cone on c17":             func(s *widesim.Sim) { s.Propagate(cones, 0) },
		"mult stem on c17":             func(s *widesim.Sim) { s.Observe(bigStems, last) },
		"c17 stem without Stems slots": func(s *widesim.Sim) { s.Observe(stems, 0) },
	} {
		checkSlotPanic(t, name, widesim.NewSim(p), run)
	}
}

func checkSlotPanic(t *testing.T, name string, s *widesim.Sim, run func(*widesim.Sim)) {
	t.Helper()
	defer func() {
		t.Helper()
		if e := recover(); e == nil {
			t.Errorf("%s: a stream past the value array did not panic", name)
		} else if msg := fmt.Sprint(e); !strings.Contains(msg, "value slots") {
			t.Errorf("%s: panic %q is not the slot check's", name, msg)
		}
	}()
	run(s)
}

func TestSetInputsLengthError(t *testing.T) {
	c, _ := circuits.Lookup("c17")
	sim := widesim.NewSim(widesim.Compile(c))
	if err := sim.SetInputs(make([]uint64, 3)); err == nil {
		t.Fatal("want error for short input slice")
	}
}
