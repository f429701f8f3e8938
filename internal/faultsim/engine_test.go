package faultsim

import (
	"context"
	"slices"
	"testing"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// engineTestCircuits returns the paper circuits, a batch of random
// fanout-heavy circuits and a circuit with truth-table cells and
// constants: the set the equivalence properties run on.
func engineTestCircuits() []*circuit.Circuit {
	cs := []*circuit.Circuit{
		circuits.C17(),
		circuits.ALU74181(),
		circuits.Mult8(),
		circuits.Div16(),
		circuits.Comp24(),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{
			Inputs:   6 + int(seed),
			Gates:    80,
			Outputs:  3,
			Seed:     seed,
			MaxArity: 4,
			Locality: 12,
		}))
	}
	return append(cs, circuits.Tables())
}

// widthTestCircuits adds the ISCAS-style c1355 (n-ary gates, wide
// fanout) to the engine set for the width tables.
func widthTestCircuits() []*circuit.Circuit {
	c1355, _ := circuits.Lookup("c1355")
	return append(engineTestCircuits(), c1355)
}

// TestEngineBlockIdentity drives the FFR engine one block at a time
// (W = 1, the width BIST capture runs at) and the
// naive oracle with the same pattern blocks and requires word-for-word
// identical detection words for every fault.
func TestEngineBlockIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits() {
		checkChunkIdentity(t, c, fault.Collapse(c), 7, 8, []int{1})
	}
}

// TestEngineUncollapsedUniverse repeats the chunk identity on the full
// (uncollapsed) fault universe, which exercises every stem and branch
// position including equivalent and undetectable faults.
func TestEngineUncollapsedUniverse(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits()[:6] {
		checkChunkIdentity(t, c, fault.Universe(c), 99, 4, wideWidths)
	}
}

// TestEngineMeasureDetectionIdentity compares whole measurements:
// detection counts and PSim between the engines, serial and parallel.
// The naive counts come from the seed-3 reference that
// TestWideMeasureDetectionIdentity shares.
func TestEngineMeasureDetectionIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		const n = 1000 // deliberately not a multiple of 64
		ref := measure(t, c, faults, pattern.NewUniform(len(c.Inputs), 3), n, Options{})
		naive := &Result{Faults: faults, Detected: sharedNaive(c, faults, 3).counts([]int{n})[n], Applied: n}
		if ref.Applied != n {
			t.Fatalf("%s: applied %d, want %d", c.Name, ref.Applied, n)
		}
		for _, workers := range []int{2, 3, -1} {
			par := measure(t, c, faults, pattern.NewUniform(len(c.Inputs), 3), n, Options{Workers: workers})
			for i := range faults {
				if ref.Detected[i] != par.Detected[i] {
					t.Fatalf("%s workers=%d fault %v: serial %d != parallel %d",
						c.Name, workers, faults[i], ref.Detected[i], par.Detected[i])
				}
			}
		}
		for i := range faults {
			if ref.Detected[i] != naive.Detected[i] {
				t.Fatalf("%s fault %v: FFR detected %d != naive %d",
					c.Name, faults[i], ref.Detected[i], naive.Detected[i])
			}
			if ref.PSim(i) != naive.PSim(i) {
				t.Fatalf("%s fault %v: PSim mismatch", c.Name, faults[i])
			}
		}
	}
}

// TestEngineCoverageCurveIdentity compares coverage curves with fault
// dropping across engines, worker counts and pattern sources, on
// checkpoints that are deliberately not multiples of 64.
func TestEngineCoverageCurveIdentity(t *testing.T) {
	t.Parallel()
	cps := []int{10, 100, 500, 777, 1500}
	for _, c := range engineTestCircuits() {
		faults := fault.Collapse(c)
		probs := make([]float64, len(c.Inputs))
		for i := range probs {
			probs[i] = 0.25 + 0.5*float64(i%3)/2
		}
		gens := map[string]func(seed uint64) *pattern.Generator{
			"uniform": func(seed uint64) *pattern.Generator {
				return pattern.NewUniform(len(c.Inputs), seed)
			},
			"weighted": func(seed uint64) *pattern.Generator {
				g, err := pattern.NewWeighted(probs, seed)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		}
		for name, mk := range gens {
			ref := curve(t, c, faults, mk(11), cps, Options{})
			naive, err := CoverageCurveNaive(context.Background(), c, faults, mk(11), cps, nil)
			if err != nil {
				t.Fatal(err)
			}
			par := curve(t, c, faults, mk(11), cps, Options{Workers: -1})
			if len(ref) != len(naive) || len(ref) != len(par) {
				t.Fatalf("%s/%s: curve lengths differ", c.Name, name)
			}
			for i := range ref {
				if ref[i] != naive[i] {
					t.Fatalf("%s/%s point %d: FFR %+v != naive %+v", c.Name, name, i, ref[i], naive[i])
				}
				if ref[i] != par[i] {
					t.Fatalf("%s/%s point %d: serial %+v != parallel %+v", c.Name, name, i, ref[i], par[i])
				}
			}
		}
	}
}

// TestEngineExhaustiveIdentity checks the FFR engine against exhaustive
// enumeration (which internally runs the naive engine) on small
// circuits: exact per-fault detection counts over all 2^n patterns.
func TestEngineExhaustiveIdentity(t *testing.T) {
	small := []*circuit.Circuit{
		circuits.C17(),
		circuits.RippleAdder(3),
		circuits.Random(circuits.RandomOptions{Inputs: 8, Gates: 60, Outputs: 3, Seed: 5}),
	}
	for _, c := range small {
		faults := fault.Collapse(c)
		want, err := ExhaustiveDetection(c, faults)
		if err != nil {
			t.Fatal(err)
		}
		// Feed the engine the same enumeration layout: at W=1 a chunk's
		// input words are one block's, one word per input.
		e := NewPlan(c, faults).AcquireWideEngine(1)
		got := make([]int, len(faults))
		det := make([]uint64, len(faults))
		err = bitsim.Exhaustive(len(c.Inputs), func(words []uint64, _ uint64, valid int) {
			e.SimulateChunk(words, det, nil)
			mask := blockMask(valid)
			for i, d := range det {
				got[i] += popcount(d & mask)
			}
		})
		e.Release()
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if got[i] != want[i] {
				t.Fatalf("%s fault %v: FFR exhaustive count %d != oracle %d",
					c.Name, faults[i], got[i], want[i])
			}
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestEngineLiveGroups checks the fault-dropping contract of the FFR
// engine at W = 1 and 8: with every other FFR group dropped, the
// live groups' words equal a full chunk's lane for lane, and the
// dropped groups' words still hold what the caller left in them.  Each
// engine first runs a full chunk of other patterns, so scratch a
// partial chunk failed to recompute would hold wrong values.
func TestEngineLiveGroups(t *testing.T) {
	const sentinel = 0xdeadbeefcafef00d
	c1355, _ := circuits.Lookup("c1355")
	for _, c := range []*circuit.Circuit{circuits.Mult8(), c1355} {
		for _, m := range fault.Models() {
			faults := m.Faults(c)
			plan := NewPlan(c, faults)
			live := make([]bool, plan.part.NumGroups())
			for si := 0; si < len(live); si += 2 {
				live[si] = true
			}
			for _, w := range wideWidths {
				e := plan.AcquireWideEngine(w)
				other := make([]uint64, len(c.Inputs)*w)
				pattern.NewUniform(len(c.Inputs), 99).NextBlocks(other, w, w)
				in := make([]uint64, len(c.Inputs)*w)
				pattern.NewUniform(len(c.Inputs), 21).NextBlocks(in, w, w)
				full := make([]uint64, len(faults)*w)
				e.SimulateChunk(other, full, nil)
				partial := make([]uint64, len(faults)*w)
				for i := range partial {
					partial[i] = sentinel
				}
				e.SimulateChunk(in, partial, live)
				e.SimulateChunk(in, full, nil)
				e.Release()
				for fi := range faults {
					want := full[fi*w : (fi+1)*w]
					if !live[plan.part.GroupOf[fi]] {
						want = slices.Repeat([]uint64{sentinel}, w)
					}
					if got := partial[fi*w : (fi+1)*w]; !slices.Equal(got, want) {
						t.Fatalf("%s %s W=%d fault %v (group live %v): words %016x, want %016x",
							c.Name, m, w, faults[fi], live[plan.part.GroupOf[fi]], got, want)
					}
				}
			}
		}
	}
}

// TestEngineCaptureOutputs pins the single-block capture BIST runs at
// widths 0 and 1: detection, good output and faulty output words of
// the FFR engine at W = 1 must equal the naive oracle's
// (Simulator.SimulateFaultBlock) for every fault.
func TestEngineCaptureOutputs(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.ALU74181(),
		circuits.Random(circuits.RandomOptions{Inputs: 9, Gates: 70, Outputs: 4, Seed: 3})} {
		checkCaptureIdentity(t, c, fault.Collapse(c), 5, []int{1})
	}
}
