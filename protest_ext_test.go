package protest

import (
	"context"
	"errors"
	"math"
	"testing"

	"protest/internal/bdd"
)

// The BDD-exact path must agree with enumeration on the ALU and handle
// COMP (beyond enumeration) exactly.
func TestExactProbsBDDAPI(t *testing.T) {
	alu, _ := Benchmark("alu")
	probs := UniformProbs(alu)
	viaBDD, err := ExactProbsBDD(alu, probs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(alu)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	// Estimator vs exact: bounded average deviation.
	var avg float64
	for id := range viaBDD {
		avg += math.Abs(viaBDD[id] - res.Prob[id])
	}
	avg /= float64(len(viaBDD))
	if avg > 0.05 {
		t.Errorf("estimator avg deviation from BDD-exact %.4f", avg)
	}

	comp, _ := Benchmark("comp")
	exact, err := ExactProbsBDD(comp, UniformProbs(comp), 0)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := comp.ByName("EQ")
	want := math.Pow(2, -25)
	if math.Abs(exact[eq]-want)/want > 1e-9 {
		t.Errorf("P(EQ) = %v, want %v", exact[eq], want)
	}
}

func TestExactProbsBDDBudget(t *testing.T) {
	mult, _ := Benchmark("mult")
	_, err := ExactProbsBDD(mult, UniformProbs(mult), 2000)
	if !errors.Is(err, bdd.ErrNodeBudget) {
		t.Errorf("expected node-budget failure on the multiplier, got %v", err)
	}
}

func TestAnalyzeStafanAPI(t *testing.T) {
	c, _ := Benchmark("c17")
	gen := NewUniformGenerator(len(c.Inputs), 3)
	r, err := AnalyzeStafan(c, gen, 6400)
	if err != nil {
		t.Fatal(err)
	}
	faults := Faults(c)
	est := r.DetectEstimates(faults)
	exact, err := ExactDetectProbs(c, faults, UniformProbs(c))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(est, exact)
	if s.Corr < 0.6 {
		t.Errorf("STAFAN correlation %.3f on c17", s.Corr)
	}
}

func TestRunBISTAPI(t *testing.T) {
	c, _ := Benchmark("c17")
	s, err := Open(c, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunBIST(context.Background(), BISTPlan{Cycles: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.99 {
		t.Errorf("BIST coverage %.3f on c17 after 256 cycles", res.Coverage())
	}
	if res.GoodSignature == 0 {
		t.Log("good signature happens to be zero (possible but unlikely)")
	}
}

// Full cross-validation: four independent estimates of the same
// quantity (enumeration, BDD, Monte-Carlo-ish STAFAN C1, PROTEST
// estimator) must line up on the ALU.
func TestFourWayCrossValidation(t *testing.T) {
	c, _ := Benchmark("alu")
	probs := UniformProbs(c)
	exact, err := ExactDetectProbs(c, Faults(c), probs) // enumeration-backed
	if err != nil {
		t.Fatal(err)
	}
	_ = exact
	viaBDD, err := ExactProbsBDD(c, probs, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewUniformGenerator(len(c.Inputs), 13)
	st, err := AnalyzeStafan(c, gen, 64*4000)
	if err != nil {
		t.Fatal(err)
	}
	for id := range viaBDD {
		if math.Abs(viaBDD[id]-st.C1[id]) > 0.03 {
			t.Errorf("node %d: BDD %v vs measured C1 %v", id, viaBDD[id], st.C1[id])
		}
	}
}
