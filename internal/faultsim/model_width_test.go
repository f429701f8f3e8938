package faultsim

import (
	"context"
	"slices"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// This file mirrors wide_test.go and engine_test.go for the non-stuck-at
// universes: every equivalence the stuck-at properties pin — FFR vs
// naive detection words, measurements at every worker count, coverage
// curves — must hold bit-for-bit for bridging and transition faults
// too, because every engine shares one conditional-activation kernel
// across kinds.

// modelCases returns the non-stuck-at universes of c that are
// non-empty (tiny or fanout-free circuits can have no bridging pairs).
func modelCases(c *circuit.Circuit) map[fault.Model][]fault.Fault {
	out := make(map[fault.Model][]fault.Fault)
	for _, m := range []fault.Model{fault.ModelBridging, fault.ModelTransition} {
		if faults := m.Faults(c); len(faults) > 0 {
			out[m] = faults
		}
	}
	return out
}

// TestModelEngineBlockIdentity drives the FFR engine over exactly one
// full chunk (8 blocks of seed 7) and the naive oracle one block at a
// time over the bridging and transition universes, and requires
// word-for-word identical detection words.
func TestModelEngineBlockIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits() {
		for _, faults := range modelCases(c) {
			checkChunkIdentity(t, c, faults, 7, 8)
		}
	}
}

// TestModelWideChunkIdentity drives the engine chunk by chunk against
// the naive oracle block by block on the bridging and transition
// universes and requires lane-for-lane identical detection words over
// 11 blocks of seed 42: a full chunk, then a padded one.  Transition
// detection words are the sharpest case: the launch/capture pairing is
// block-local, so a lane split that shifted block boundaries would
// corrupt bit 0 of every block.
func TestModelWideChunkIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits() {
		for _, faults := range modelCases(c) {
			checkChunkIdentity(t, c, faults, 42, 11)
		}
	}
}

// TestModelMeasureDetectionIdentity compares whole measurements over
// the bridging and transition universes: on every ragged pattern
// budget, detection counts and per-fault trial counts must match the
// naive oracle exactly; parallel runs take the longest budget.
func TestModelMeasureDetectionIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range widthTestCircuits() {
		for model, faults := range modelCases(c) {
			plan := NewPlan(c, faults)
			want := sharedNaive(c, faults, 3).counts(raggedCounts)
			for _, n := range raggedCounts {
				for _, workers := range []int{1, 3, -1} {
					if workers != 1 && n != slices.Max(raggedCounts) {
						continue
					}
					opts := Options{Workers: workers}
					got, err := plan.MeasureDetection(context.Background(),
						pattern.NewUniform(len(c.Inputs), 3), n, opts, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Applied != n {
						t.Fatalf("%s %s n=%d %+v: applied %d", c.Name, model, n, opts, got.Applied)
					}
					for i := range faults {
						if got.Detected[i] != want[n][i] {
							t.Fatalf("%s %s n=%d %+v fault %v: detected %d != %d",
								c.Name, model, n, opts, faults[i], got.Detected[i], want[n][i])
						}
					}
				}
			}
		}
	}
}

// TestModelCoverageCurveIdentity compares fault-dropping coverage
// curves over the bridging and transition universes across worker
// counts against the naive oracle, on the ragged checkpoints.
func TestModelCoverageCurveIdentity(t *testing.T) {
	t.Parallel()
	cps := raggedCounts
	c1355, _ := circuits.Lookup("c1355")
	cs := append(engineTestCircuits()[:6], circuits.Tables(), c1355)
	for _, c := range cs {
		for model, faults := range modelCases(c) {
			plan := NewPlan(c, faults)
			ref := naiveCurve(t, plan, 11, cps)
			for _, workers := range []int{1, 3} {
				got, err := plan.CoverageCurve(context.Background(),
					pattern.NewUniform(len(c.Inputs), 11), cps, Options{Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s %s workers %d: %d points != %d", c.Name, model, workers, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s %s workers %d: point %d %+v != %+v",
							c.Name, model, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestTransitionOpportunities pins the per-block launch arithmetic the
// transition denominators rest on: bit 0 of every 64-pattern block has
// no launch pattern, so n patterns carry n - ceil(n/64) detection
// opportunities.
func TestTransitionOpportunities(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 0, 2: 1, 63: 62, 64: 63, 65: 63, 66: 64,
		128: 126, 1000: 984, 2000: 1968,
	}
	for n, want := range cases {
		if got := TransitionOpportunities(n); got != want {
			t.Errorf("TransitionOpportunities(%d) = %d, want %d", n, got, want)
		}
	}
}
