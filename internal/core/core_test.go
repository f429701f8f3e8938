package core

import (
	"math"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/netlist"
)

func mustParse(t *testing.T, src, name string) *circuit.Circuit {
	t.Helper()
	c, err := netlist.ParseString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newEvaluator compiles the program of (c, params) and returns a
// private evaluator over it.
func newEvaluator(c *circuit.Circuit, params Params) (*Evaluator, error) {
	p, err := NewProgram(c, params)
	if err != nil {
		return nil, err
	}
	return p.NewEvaluator(), nil
}

func TestParamsValidation(t *testing.T) {
	c := circuits.C17()
	bad := DefaultParams()
	bad.MaxVers = -1
	if _, err := newEvaluator(c, bad); err == nil {
		t.Error("negative MaxVers must fail")
	}
	bad = DefaultParams()
	bad.MaxVers = 20
	if _, err := newEvaluator(c, bad); err == nil {
		t.Error("huge MaxVers must fail")
	}
	bad = DefaultParams()
	bad.MaxCandidates = 1
	if _, err := newEvaluator(c, bad); err == nil {
		t.Error("MaxCandidates < MaxVers must fail")
	}
}

func TestRunValidation(t *testing.T) {
	c := circuits.C17()
	an, err := newEvaluator(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Run(t.Context(), []float64{0.5}); err == nil {
		t.Error("wrong probability count must fail")
	}
	if _, err := an.Run(t.Context(), []float64{0.5, 0.5, 0.5, 0.5, 1.5}); err == nil {
		t.Error("out-of-range probability must fail")
	}
}

// Case 1+2: inputs and inverters.
func TestInverterChain(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
n1 = NOT(a)
n2 = NOT(n1)
y = NOT(n2)
`, "chain")
	res, err := Analyze(c, []float64{0.3}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.ByName("y")
	if math.Abs(res.Prob[y]-0.7) > 1e-12 {
		t.Errorf("p(y) = %v, want 0.7", res.Prob[y])
	}
}

// Case 3: independent AND.
func TestIndependentAnd(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`, "and")
	res, err := Analyze(c, []float64{0.25, 0.5}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.ByName("y")
	if math.Abs(res.Prob[y]-0.125) > 1e-12 {
		t.Errorf("p(y) = %v, want 0.125", res.Prob[y])
	}
}

// Case 4: the diamond — conditioning must recover the exact value 0,
// while the independence model would give p(1-p).
func TestDiamondExact(t *testing.T) {
	c := circuits.Diamond()
	for _, p := range []float64{0.1, 0.5, 0.9} {
		res, err := Analyze(c, []float64{p}, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		y, _ := c.ByName("y")
		if math.Abs(res.Prob[y]) > 1e-12 {
			t.Errorf("p=%v: estimated %v, want exactly 0", p, res.Prob[y])
		}
	}
}

// With MaxVers=0 the same circuit degrades to the independence model.
func TestDiamondIndependenceFallback(t *testing.T) {
	c := circuits.Diamond()
	params := DefaultParams()
	params.MaxVers = 0
	params.MaxCandidates = 0
	res, err := Analyze(c, []float64{0.5}, params)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.ByName("y")
	if math.Abs(res.Prob[y]-0.25) > 1e-12 {
		t.Errorf("independence model p(y) = %v, want 0.25", res.Prob[y])
	}
}

// Repeated fanin: AND(a, a) must give p, XOR(a, a) must give 0.
func TestRepeatedFanin(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = AND(a, a)
z = XOR(a, a)
`, "rep")
	res, err := Analyze(c, []float64{0.3}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.ByName("y")
	z, _ := c.ByName("z")
	if math.Abs(res.Prob[y]-0.3) > 1e-12 {
		t.Errorf("p(AND(a,a)) = %v, want 0.3", res.Prob[y])
	}
	if math.Abs(res.Prob[z]) > 1e-12 {
		t.Errorf("p(XOR(a,a)) = %v, want 0", res.Prob[z])
	}
}

// On fanout-free circuits the estimator is exact for any input tuple.
func TestFanoutFreeExact(t *testing.T) {
	c := circuits.ParityTree(6)
	probs := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.42}
	res, err := Analyze(c, probs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbs(c, probs)
	if err != nil {
		t.Fatal(err)
	}
	for id := range exact {
		if math.Abs(res.Prob[id]-exact[id]) > 1e-9 {
			t.Fatalf("node %d: est %v exact %v", id, res.Prob[id], exact[id])
		}
	}
}

// On c17 with enough conditioning the estimates must be very close to
// exact (c17's reconvergence is shallow).
func TestC17CloseToExact(t *testing.T) {
	c := circuits.C17()
	probs := UniformProbs(c)
	res, err := Analyze(c, probs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbs(c, probs)
	if err != nil {
		t.Fatal(err)
	}
	for id := range exact {
		if math.Abs(res.Prob[id]-exact[id]) > 0.02 {
			t.Errorf("node %d (%s): est %v exact %v", id, c.Node(circuit.NodeID(id)).Name, res.Prob[id], exact[id])
		}
	}
}

// The conditioned estimator must never be worse than the independence
// model on the c17 average error.
func TestConditioningImprovesC17(t *testing.T) {
	c := circuits.C17()
	probs := UniformProbs(c)
	exact, err := ExactProbs(c, probs)
	if err != nil {
		t.Fatal(err)
	}
	noCond := DefaultParams()
	noCond.MaxVers = 0
	noCond.MaxCandidates = 0
	resInd, err := Analyze(c, probs, noCond)
	if err != nil {
		t.Fatal(err)
	}
	resCond, err := Analyze(c, probs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var errInd, errCond float64
	for id := range exact {
		errInd += math.Abs(resInd.Prob[id] - exact[id])
		errCond += math.Abs(resCond.Prob[id] - exact[id])
	}
	if errCond > errInd+1e-9 {
		t.Errorf("conditioning increased total error: %v > %v", errCond, errInd)
	}
}

// All estimated probabilities stay in [0,1] on random circuits with
// random input probabilities.
func TestProbsInRange(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		c := circuits.Random(circuits.RandomOptions{Inputs: 10, Gates: 150, Outputs: 5, Seed: seed})
		probs := make([]float64, 10)
		for i := range probs {
			probs[i] = float64(i) / 9
		}
		res, err := Analyze(c, probs, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for id, p := range res.Prob {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("seed %d node %d: probability %v", seed, id, p)
			}
		}
		for id, s := range res.Obs {
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("seed %d node %d: observability %v", seed, id, s)
			}
		}
	}
}

// Estimator agrees with Monte-Carlo on a random circuit within
// statistical tolerance on average.
func TestEstimatorVsMonteCarlo(t *testing.T) {
	c := circuits.Random(circuits.RandomOptions{Inputs: 12, Gates: 80, Outputs: 4, Seed: 7})
	probs := UniformProbs(c)
	res, err := Analyze(c, probs, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloProbs(c, probs, 64*2000, 99)
	if err != nil {
		t.Fatal(err)
	}
	var avg float64
	for id := range mc {
		avg += math.Abs(res.Prob[id] - mc[id])
	}
	avg /= float64(len(mc))
	if avg > 0.06 {
		t.Errorf("average |est - MC| = %v too large", avg)
	}
}
