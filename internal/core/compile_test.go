package core

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
)

// TestCompiledConditioningIdentity requires the compiled conditional
// propagation (fused two-rail scoring, cached merged assignment
// programs, single-candidate shortcut) to reproduce the generic
// interpreter bit for bit: every Prob, Obs and PinObs value of a full
// run must be exactly equal, across paper circuits, random circuits,
// parameter sets and input tuples.
func TestCompiledConditioningIdentity(t *testing.T) {
	cs := []*circuit.Circuit{
		circuits.C17(),
		circuits.ALU74181(),
		circuits.Comp24(),
		circuits.Div16(),
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{
			Inputs: 8, Gates: 120, Outputs: 4, Seed: seed, MaxArity: 5,
		}))
	}
	params := []Params{
		DefaultParams(),
		FastParams(),
		{MaxVers: 1, MaxList: 6, MaxCandidates: 5, MaxConeSize: 96},
		{MaxVers: 3, MaxList: 8, MaxCandidates: 9, MaxConeSize: 128, ObsModel: ObsOr, PaperLocalDiff: true},
	}
	for _, c := range cs {
		for _, p := range params {
			fast, err := newEvaluator(c, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newEvaluator(c, p)
			if err != nil {
				t.Fatal(err)
			}
			ref.noCompile = true
			for _, tuple := range testTuples(c) {
				got, err := fast.Run(t.Context(), tuple)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run(t.Context(), tuple)
				if err != nil {
					t.Fatal(err)
				}
				for id := range got.Prob {
					if got.Prob[id] != want.Prob[id] {
						t.Fatalf("%s params %+v node %d: compiled Prob %v != generic %v",
							c.Name, p, id, got.Prob[id], want.Prob[id])
					}
					if got.Obs[id] != want.Obs[id] {
						t.Fatalf("%s params %+v node %d: compiled Obs %v != generic %v",
							c.Name, p, id, got.Obs[id], want.Obs[id])
					}
					for pin := range got.PinObs[id] {
						if got.PinObs[id][pin] != want.PinObs[id][pin] {
							t.Fatalf("%s params %+v node %d pin %d: compiled PinObs %v != generic %v",
								c.Name, p, id, pin, got.PinObs[id][pin], want.PinObs[id][pin])
						}
					}
				}
			}
		}
	}
}

// testTuples returns a few input tuples including degenerate 0/1
// probabilities (which exercise the constant-candidate skip and the
// weight==0 assignment skip).
func testTuples(c *circuit.Circuit) [][]float64 {
	n := len(c.Inputs)
	uniform := make([]float64, n)
	skewed := make([]float64, n)
	degenerate := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = 0.5
		skewed[i] = float64(1+i%15) / 16
		switch i % 4 {
		case 0:
			degenerate[i] = 0
		case 1:
			degenerate[i] = 1
		default:
			degenerate[i] = 0.3125
		}
	}
	return [][]float64{uniform, skewed, degenerate}
}
