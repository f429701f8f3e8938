package protest

import (
	"context"
	"math"
	"strings"
	"testing"
)

// Full pipeline on c17: parse -> analyze -> test length -> simulate ->
// validate the estimate against measurement.
func TestPipelineC17(t *testing.T) {
	c, ok := Benchmark("c17")
	if !ok {
		t.Fatal("c17 missing")
	}
	faults := Faults(c)
	if len(faults) == 0 {
		t.Fatal("no faults")
	}
	s, err := Open(c, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := s.Analyze(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs := res.DetectProbs(faults)
	n, err := RequiredPatterns(probs, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 10000 {
		t.Fatalf("implausible c17 test length %d", n)
	}
	// Validate: simulating n patterns should reach full coverage most
	// of the time; with a fixed seed we demand it outright (the
	// estimate is conservative for c17).
	sim, err := s.Simulate(ctx, int(n)*4)
	if err != nil {
		t.Fatal(err)
	}
	if cov := sim.Coverage(); cov < 1 {
		t.Errorf("4N patterns cover only %.3f of c17", cov)
	}
}

func TestPipelineBuilderAPI(t *testing.T) {
	b := NewBuilder("majority")
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	xy := b.And("xy", x, y)
	xz := b.And("xz", x, z)
	yz := b.And("yz", y, z)
	out := b.Or("maj", xy, xz, yz)
	b.MarkOutput(out)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Majority of three fair bits is 1 with probability 0.5.
	if math.Abs(res.Prob[out]-0.5) > 0.01 {
		t.Errorf("p(maj) = %v, want ~0.5", res.Prob[out])
	}
}

func TestNetlistRoundTripAPI(t *testing.T) {
	c, _ := Benchmark("c17")
	text, err := NetlistString(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseNetlistString(text, "c17again")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() {
		t.Error("round trip changed the gate count")
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	for _, name := range BenchmarkNames() {
		c, ok := Benchmark(name)
		if !ok || c == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		if c.NumGates() == 0 {
			t.Errorf("benchmark %q is empty", name)
		}
	}
	if _, ok := Benchmark("nonesuch"); ok {
		t.Error("unknown benchmark must report false")
	}
}

func TestExactAgreesWithSimulationAPI(t *testing.T) {
	c, _ := Benchmark("c17")
	faults := Faults(c)
	exact, err := ExactDetectProbs(c, faults, UniformProbs(c))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(c, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := s.Simulate(context.Background(), 64*200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if math.Abs(sim.PSim(i)-exact[i]) > 0.05 {
			t.Errorf("fault %d: P_SIM %v exact %v", i, sim.PSim(i), exact[i])
		}
	}
}

func TestOptimizeAPIOnEqualityCore(t *testing.T) {
	src := `
INPUT(a0)
INPUT(a1)
INPUT(b0)
INPUT(b1)
OUTPUT(eq)
x0 = XNOR(a0, b0)
x1 = XNOR(a1, b1)
eq = AND(x0, x1)
`
	c, err := ParseNetlistString(src, "eq4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(c, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := s.Optimize(ctx, OptimizeOptions{MaxSweeps: 4, SeedSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective < res.InitialObjective {
		t.Error("optimization worsened the objective")
	}
	curve, err := s.CoverageCurve(ctx, res.Probs, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].Coverage < 99 {
		t.Errorf("optimized patterns reach only %.1f%% on eq4", curve[0].Coverage)
	}
}

func TestQuantizeProbsAPI(t *testing.T) {
	q := QuantizeProbs([]float64{0.501, 0.94}, 16)
	if math.Abs(q[0]-0.5) > 1e-12 || math.Abs(q[1]-15.0/16) > 1e-12 {
		t.Errorf("quantized %v", q)
	}
}

func TestScatterAndSummaryAPI(t *testing.T) {
	x := []float64{0.1, 0.5, 0.9}
	y := []float64{0.15, 0.45, 0.95}
	s := Summarize(x, y)
	if s.Corr < 0.98 {
		t.Errorf("corr %v", s.Corr)
	}
	plot := ScatterPlot(x, y, 30, 10, "Pprot", "Psim")
	if !strings.Contains(plot, "+") {
		t.Error("plot should contain points")
	}
}

func TestExpectedCoverageAPI(t *testing.T) {
	probs := []float64{0.5, 0.25}
	if got := ExpectedCoverage(probs, 0); got != 0 {
		t.Errorf("coverage at 0 patterns = %v", got)
	}
	if got := ExpectedCoverage(probs, 100); got < 0.999 {
		t.Errorf("coverage at 100 patterns = %v", got)
	}
	if p := PatternSetProbability(probs, 100); p < 0.999 {
		t.Errorf("set probability %v", p)
	}
	rows := TestLengthTable(probs, []float64{1.0}, []float64{0.95})
	if len(rows) != 1 || rows[0].Err != nil {
		t.Errorf("table %v", rows)
	}
	if _, err := RequiredPatternsFraction(probs, 0.5, 0.95); err != nil {
		t.Error(err)
	}
}
