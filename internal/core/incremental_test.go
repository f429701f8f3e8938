package core

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// assertAnalysisEqual fails unless the two analyses agree bit for bit
// on every estimate PROTEST derives: signal probabilities,
// observabilities, pin observabilities and per-fault detection
// probabilities.
func assertAnalysisEqual(t *testing.T, label string, got, want *Analysis, faults []fault.Fault) {
	t.Helper()
	c := want.C
	for id := range want.Prob {
		if got.Prob[id] != want.Prob[id] {
			t.Fatalf("%s: Prob[%d] = %v, want %v", label, id, got.Prob[id], want.Prob[id])
		}
		if got.Obs[id] != want.Obs[id] {
			t.Fatalf("%s: Obs[%d] = %v, want %v", label, id, got.Obs[id], want.Obs[id])
		}
		for pin := range want.PinObs[id] {
			if got.PinObs[id][pin] != want.PinObs[id][pin] {
				t.Fatalf("%s: PinObs[%d][%d] = %v, want %v", label, id, pin, got.PinObs[id][pin], want.PinObs[id][pin])
			}
		}
	}
	gd := got.DetectProbs(faults)
	wd := want.DetectProbs(faults)
	for i := range faults {
		if gd[i] != wd[i] {
			t.Fatalf("%s: DetectProb(%s) = %v, want %v", label, faults[i].Name(c), gd[i], wd[i])
		}
	}
}

// For random circuits and random single-, pair- and multi-input
// perturbations, chained Evaluator.Update calls must stay bit-identical
// to a fresh full Run at every step — the exactness contract of the
// incremental engine.
func TestUpdateMatchesRunRandomCircuits(t *testing.T) {
	rng := pattern.NewRNG(77)
	for seed := uint64(0); seed < 6; seed++ {
		c := circuits.Random(circuits.RandomOptions{
			Inputs:  10,
			Gates:   80,
			Outputs: 5,
			Seed:    seed,
		})
		faults := fault.Collapse(c)
		for _, params := range []Params{DefaultParams(), FastParams()} {
			an, err := newEvaluator(c, params)
			if err != nil {
				t.Fatal(err)
			}
			probs := UniformProbs(c)
			res, err := an.Run(t.Context(), probs)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 20; step++ {
				// Perturbation width: mostly single and pair moves (the
				// optimizer's shape), occasionally many inputs (the
				// fallback path).
				k := 1 + int(rng.Uint64()%2)
				if step%7 == 6 {
					k = len(probs)/2 + 1
				}
				changed := make([]int, k)
				for i := range changed {
					idx := int(rng.Uint64() % uint64(len(probs)))
					changed[i] = idx
					probs[idx] = float64(1+rng.Uint64()%15) / 16
				}
				if err := an.Update(res, changed, probs); err != nil {
					t.Fatal(err)
				}
				fresh, err := an.Run(t.Context(), probs)
				if err != nil {
					t.Fatal(err)
				}
				assertAnalysisEqual(t, "update", res, fresh, faults)
			}
		}
	}
}

// The paper circuits exercise deep reconvergence (COMP's cascaded
// comparator, the ALU): chained updates must track full runs there
// too, including through analyzer clones sharing one plan.
func TestUpdateMatchesRunPaperCircuits(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuits.ALU74181, circuits.Comp24} {
		c := build()
		faults := fault.Collapse(c)
		an, err := newEvaluator(c, FastParams())
		if err != nil {
			t.Fatal(err)
		}
		worker := an.NewEvaluator()
		probs := UniformProbs(c)
		res := an.NewAnalysis()
		if err := an.RunInto(res, probs); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			i := (step * 5) % len(probs)
			j := (step*5 + 1) % len(probs)
			probs[i] = float64(1+step%15) / 16
			probs[j] = float64(15-step%15) / 16
			// Alternate the original analyzer and a clone: both share
			// the incremental plan and must agree.
			u := an
			if step%2 == 1 {
				u = worker
			}
			if err := u.Update(res, []int{i, j}, probs); err != nil {
				t.Fatal(err)
			}
			fresh, err := an.Run(t.Context(), probs)
			if err != nil {
				t.Fatal(err)
			}
			assertAnalysisEqual(t, c.Name, res, fresh, faults)
		}
	}
}

// RunInto must equal Run, and CopyFrom must produce an equivalent
// analysis that Update can continue from.
func TestRunIntoAndCopyFrom(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	an, err := newEvaluator(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	probs := UniformProbs(c)
	res := an.NewAnalysis()
	if err := an.RunInto(res, probs); err != nil {
		t.Fatal(err)
	}
	fresh, err := an.Run(t.Context(), probs)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, "runinto", res, fresh, faults)

	cp := an.NewAnalysis()
	cp.CopyFrom(res)
	probs[3] = 0.8125
	if err := an.Update(cp, []int{3}, probs); err != nil {
		t.Fatal(err)
	}
	fresh2, err := an.Run(t.Context(), probs)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, "copyfrom+update", cp, fresh2, faults)
	// The copy source must be untouched.
	if res.InputProbs[3] != 0.5 || res.Prob[c.Inputs[3]] != 0.5 {
		t.Fatalf("CopyFrom aliased the source analysis")
	}
}

// Update must reject foreign analyses, bad indices and bad
// probabilities, and must be a no-op for an empty effective change
// set.
func TestUpdateValidation(t *testing.T) {
	c := circuits.C17()
	an, err := newEvaluator(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	probs := UniformProbs(c)
	res := an.NewAnalysis()
	if err := an.RunInto(res, probs); err != nil {
		t.Fatal(err)
	}
	if err := an.Update(&Analysis{}, []int{0}, probs); err == nil {
		t.Fatal("Update accepted a foreign analysis")
	}
	if err := an.Update(res, []int{-1}, probs); err == nil {
		t.Fatal("Update accepted a negative index")
	}
	if err := an.Update(res, []int{len(probs)}, probs); err == nil {
		t.Fatal("Update accepted an out-of-range index")
	}
	bad := append([]float64(nil), probs...)
	bad[1] = 1.5
	if err := an.Update(res, []int{1}, bad); err == nil {
		t.Fatal("Update accepted probability 1.5")
	}
	// No-op change set: identical probabilities.
	before := an.NewAnalysis()
	before.CopyFrom(res)
	if err := an.Update(res, []int{0, 0, 2}, probs); err != nil {
		t.Fatal(err)
	}
	assertAnalysisEqual(t, "noop", res, before, fault.Collapse(c))
}

// Steady-state incremental updates must not allocate: the whole point
// of RunInto/Update is an allocation-free optimizer hot path.
func TestUpdateDoesNotAllocate(t *testing.T) {
	c := circuits.Comp24()
	an, err := newEvaluator(c, FastParams())
	if err != nil {
		t.Fatal(err)
	}
	probs := UniformProbs(c)
	res := an.NewAnalysis()
	if err := an.RunInto(res, probs); err != nil {
		t.Fatal(err)
	}
	// Prime the lazily built incremental plan.
	probs[0] = 0.5625
	if err := an.Update(res, []int{0}, probs); err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	detect := make([]float64, len(faults))
	steps := []float64{0.4375, 0.5625}
	allocs := testing.AllocsPerRun(50, func() {
		for k, i := range []int{0, 7, 19} {
			probs[i] = steps[k%2]
			if err := an.Update(res, []int{i}, probs); err != nil {
				t.Fatal(err)
			}
		}
		res.DetectProbsInto(detect, faults)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Update allocated %.1f times per run, want 0", allocs)
	}
}

// RunInto itself must also be allocation free in the steady state.
func TestRunIntoDoesNotAllocate(t *testing.T) {
	c := circuits.ALU74181()
	an, err := newEvaluator(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	probs := UniformProbs(c)
	res := an.NewAnalysis()
	if err := an.RunInto(res, probs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := an.RunInto(res, probs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunInto allocated %.1f times per run, want 0", allocs)
	}
}
