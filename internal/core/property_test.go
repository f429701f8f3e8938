package core

import (
	"math"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
	"protest/internal/stats"
)

// randomSmall generates a random circuit small enough for the exact
// oracles (<= 12 inputs).
func randomSmall(seed uint64) *circuit.Circuit {
	return circuits.Random(circuits.RandomOptions{
		Inputs:  8,
		Gates:   40,
		Outputs: 4,
		Seed:    seed,
	})
}

// Across random circuits and random input tuples, the estimated signal
// probabilities must track the exact ones closely on average and the
// conditioned estimator must not lose to the independence model.
func TestEstimatorAccuracyRandomCircuits(t *testing.T) {
	rng := pattern.NewRNG(2024)
	for seed := uint64(0); seed < 8; seed++ {
		c := randomSmall(seed)
		in := make([]float64, len(c.Inputs))
		for i := range in {
			in[i] = 0.1 + 0.8*rng.Float64()
		}
		exact, err := ExactProbs(c, in)
		if err != nil {
			t.Fatal(err)
		}
		noCond := DefaultParams()
		noCond.MaxVers = 0
		noCond.MaxCandidates = 0
		rI, err := Analyze(c, in, noCond)
		if err != nil {
			t.Fatal(err)
		}
		rC, err := Analyze(c, in, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var errI, errC float64
		for id := range exact {
			errI += math.Abs(rI.Prob[id] - exact[id])
			errC += math.Abs(rC.Prob[id] - exact[id])
		}
		n := float64(len(exact))
		if errC/n > 0.08 {
			t.Errorf("seed %d: conditioned avg error %.4f too large", seed, errC/n)
		}
		if errC > errI+1e-9 {
			t.Errorf("seed %d: conditioning increased error: %.4f > %.4f", seed, errC, errI)
		}
	}
}

// Estimated detection probabilities must correlate strongly with the
// exact ones on random circuits.
func TestDetectionCorrelationRandomCircuits(t *testing.T) {
	worst := 1.0
	for seed := uint64(10); seed < 16; seed++ {
		c := randomSmall(seed)
		faults := fault.Collapse(c)
		res, err := Analyze(c, UniformProbs(c), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactDetectProbs(c, faults, UniformProbs(c))
		if err != nil {
			t.Fatal(err)
		}
		est := res.DetectProbs(faults)
		// Drop exactly-undetectable faults (random circuits contain
		// redundancy); correlation over the testable ones.
		var e2, x2 []float64
		for i := range exact {
			if exact[i] > 0 {
				e2 = append(e2, est[i])
				x2 = append(x2, exact[i])
			}
		}
		if len(e2) < 10 {
			continue
		}
		if corr := stats.Correlation(e2, x2); corr < worst {
			worst = corr
		}
	}
	if worst < 0.6 {
		t.Errorf("worst-case detection correlation %.3f < 0.6 over random circuits", worst)
	}
}

// Under the OR stem model an estimated detection probability of zero
// must imply the fault is hard: ObsOr never drops a stem below its best
// branch, so spurious zeros are impossible.  (The ⊞ model deliberately
// reproduces the paper's cancellation artifact — see
// TestXorTreeCancellationArtifact.)
func TestZeroEstimateMeansHardFault(t *testing.T) {
	params := DefaultParams()
	params.ObsModel = ObsOr
	for seed := uint64(20); seed < 26; seed++ {
		c := randomSmall(seed)
		faults := fault.Collapse(c)
		res, err := Analyze(c, UniformProbs(c), params)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactDetectProbs(c, faults, UniformProbs(c))
		if err != nil {
			t.Fatal(err)
		}
		est := res.DetectProbs(faults)
		for i := range faults {
			if est[i] == 0 && exact[i] > 0.2 {
				t.Errorf("seed %d fault %v: estimated 0 but exact %.3f", seed, faults[i].Name(c), exact[i])
			}
		}
	}
}

// The ⊞ stem model treats two fully-observable branches as cancelling
// (1 ⊞ 1 = 0) even when they reach different primary outputs — the
// source of the paper's systematic under-estimation.  Pin the artifact
// down so a change to the model is noticed.
func TestXorTreeCancellationArtifact(t *testing.T) {
	// s fans out to two buffers observed at two different outputs: the
	// fault at s is trivially detected (exact obs 1), yet ⊞ gives 0.
	c := mustParse(t, `
INPUT(s)
OUTPUT(y)
OUTPUT(z)
y = BUF(s)
z = BUF(s)
`, "fan2")
	s, _ := c.ByName("s")
	xorRes, err := Analyze(c, []float64{0.5}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if xorRes.Obs[s] != 0 {
		t.Errorf("⊞ model obs(s) = %v; the documented artifact expects 0", xorRes.Obs[s])
	}
	orParams := DefaultParams()
	orParams.ObsModel = ObsOr
	orRes, err := Analyze(c, []float64{0.5}, orParams)
	if err != nil {
		t.Fatal(err)
	}
	if orRes.Obs[s] != 1 {
		t.Errorf("OR model obs(s) = %v, want 1", orRes.Obs[s])
	}
}

// Degenerate input probabilities (exact 0/1) must propagate to exact
// constants through the estimator.
func TestConstantInputsPropagate(t *testing.T) {
	c := circuits.C17()
	in := []float64{1, 1, 1, 1, 1}
	res, err := Analyze(c, in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbs(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range exact {
		if math.Abs(res.Prob[id]-exact[id]) > 1e-12 {
			t.Errorf("node %d: est %v exact %v under constant inputs", id, res.Prob[id], exact[id])
		}
	}
}

// Complementation symmetry: estimating with tuple p on a circuit equals
// 1 - estimate of the complemented output when the circuit is an
// inverter sandwich.  Cheap sanity on the arithmetic transforms.
func TestComplementSymmetry(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(y)
OUTPUT(ny)
t1 = AND(a, b)
y = OR(t1, cc)
ny = NOT(y)
`, "comp")
	for _, p := range [][]float64{{0.5, 0.5, 0.5}, {0.9, 0.1, 0.3}} {
		res, err := Analyze(c, p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		y, _ := c.ByName("y")
		ny, _ := c.ByName("ny")
		if math.Abs(res.Prob[y]+res.Prob[ny]-1) > 1e-12 {
			t.Errorf("p(y)+p(¬y) = %v", res.Prob[y]+res.Prob[ny])
		}
	}
}

// Observability of a node must never exceed 1 nor be negative across
// random circuits, and primary outputs with no fanout must have
// observability exactly 1.
func TestObservabilityInvariants(t *testing.T) {
	for seed := uint64(30); seed < 36; seed++ {
		c := randomSmall(seed)
		res, err := Analyze(c, UniformProbs(c), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for id := range c.Nodes {
			s := res.Obs[id]
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("seed %d node %d: obs %v", seed, id, s)
			}
			n := c.Node(circuit.NodeID(id))
			if n.IsOutput && len(n.Fanout) == 0 && s != 1 {
				t.Errorf("seed %d: pure output node %d obs %v != 1", seed, id, s)
			}
		}
	}
}

// The analyzer plan must be reusable: two Run calls with different
// tuples from one Evaluator must equal fresh Analyze calls.
func TestAnalyzerReuse(t *testing.T) {
	c := circuits.ALU74181()
	an, err := newEvaluator(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tuples := [][]float64{UniformProbs(c), nil}
	tuples[1] = make([]float64, len(c.Inputs))
	for i := range tuples[1] {
		tuples[1][i] = float64(i+1) / float64(len(c.Inputs)+2)
	}
	for _, tp := range tuples {
		fromReuse, err := an.Run(t.Context(), tp)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Analyze(c, tp, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for id := range fresh.Prob {
			if fromReuse.Prob[id] != fresh.Prob[id] {
				t.Fatalf("reused analyzer diverged at node %d", id)
			}
			if fromReuse.Obs[id] != fresh.Obs[id] {
				t.Fatalf("reused analyzer obs diverged at node %d", id)
			}
		}
	}
}
