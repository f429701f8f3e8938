package protest

import (
	"context"
	"math"
	"testing"

	"protest/internal/core"
	"protest/internal/optimize"
)

// An explicit seed 0 must be honored, not silently replaced by the
// Session seed: pattern.NewRNG documents 0 as a valid seed, so two
// Sessions opened with *different* default seeds must produce
// bit-identical climbs when both request Seed = 0 explicitly.
func TestOptimizeExplicitSeedZeroDeterministic(t *testing.T) {
	c, _ := Benchmark("c17")
	s1, err := Open(c, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(c, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	opt := OptimizeOptions{Seed: 0, SeedSet: true, Restarts: 2}
	r1, err := s1.Optimize(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Optimize(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Probs) != len(r2.Probs) {
		t.Fatalf("prob lengths differ: %d vs %d", len(r1.Probs), len(r2.Probs))
	}
	for i := range r1.Probs {
		if r1.Probs[i] != r2.Probs[i] {
			t.Fatalf("explicit seed 0 not reproducible: probs[%d] = %v vs %v (session seeds 7 and 99)",
				i, r1.Probs[i], r2.Probs[i])
		}
	}
	if r1.Objective != r2.Objective {
		t.Fatalf("explicit seed 0 not reproducible: objective %v vs %v", r1.Objective, r2.Objective)
	}

	// The Session path with an explicit seed 0 must also match the
	// internal optimizer, which never substitutes seeds.
	prog, err := core.NewProgram(c, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := optimize.Optimize(t.Context(), prog, Faults(c), OptimizeOptions{Seed: 0, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Probs {
		if r1.Probs[i] != ref.Probs[i] {
			t.Fatalf("session seed-0 climb diverges from the internal optimizer: probs[%d] = %v vs %v",
				i, r1.Probs[i], ref.Probs[i])
		}
	}
}

// Without SeedSet the zero value keeps its documented meaning: the
// climb adopts the Session seed, i.e. it matches an explicit request
// for that same seed.
func TestOptimizeSeedZeroDefaultsToSessionSeed(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	def, err := s.Optimize(context.Background(), OptimizeOptions{Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := s.Optimize(context.Background(), OptimizeOptions{Seed: 42, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Probs {
		if def.Probs[i] != explicit.Probs[i] {
			t.Fatalf("zero-value seed should adopt the Session seed: probs[%d] = %v vs %v",
				i, def.Probs[i], explicit.Probs[i])
		}
	}
}

// The pipeline's quantization contract: grid 0 selects the default 16,
// any other grid <= 1 disables quantization and keeps the climb's
// exact tuple, and no grid ever yields an invalid probability vector.
func TestPipelineQuantizeGridContract(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	run := func(grid int) *Report {
		t.Helper()
		rep, err := s.Run(context.Background(), PipelineSpec{
			Optimize:     true,
			QuantizeGrid: grid,
			SimPatterns:  64,
		})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		return rep
	}
	def := run(0)     // default lattice
	grid16 := run(16) // explicit default
	raw := run(1)     // disabled: exact climb tuple
	rawNeg := run(-1) // disabled, negative spelling

	for _, rep := range []*Report{def, grid16, raw, rawNeg} {
		for i, p := range rep.Optimized.InputProbs {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("optimized prob[%d] = %v is not a valid probability", i, p)
			}
		}
	}
	for i := range def.Optimized.InputProbs {
		if def.Optimized.InputProbs[i] != grid16.Optimized.InputProbs[i] {
			t.Fatalf("grid 0 should mean the default 16: probs[%d] = %v vs %v",
				i, def.Optimized.InputProbs[i], grid16.Optimized.InputProbs[i])
		}
		if raw.Optimized.InputProbs[i] != rawNeg.Optimized.InputProbs[i] {
			t.Fatalf("grid 1 and grid -1 should both disable quantization: probs[%d] = %v vs %v",
				i, raw.Optimized.InputProbs[i], rawNeg.Optimized.InputProbs[i])
		}
	}
}
