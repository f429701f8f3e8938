package optimize

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/netlist"
	"protest/internal/testlen"
)

// conflicted has two regions pulling the weights in opposite
// directions: an AND cone (wants inputs high) and a NOR cone (wants
// them low) over the same inputs.
func conflicted(t *testing.T) *circuit.Circuit {
	t.Helper()
	src := `
INPUT(a0)
INPUT(a1)
INPUT(a2)
INPUT(a3)
INPUT(a4)
INPUT(a5)
OUTPUT(hi)
OUTPUT(lo)
hi = AND(a0, a1, a2, a3, a4, a5)
lo = NOR(a0, a1, a2, a3, a4, a5)
`
	c, err := netlist.ParseString(src, "conflicted")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOptimizeMultiBeatsSingleOnConflict(t *testing.T) {
	c := conflicted(t)
	an, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)

	single, err := Optimize(t.Context(), an, faults, Options{MaxSweeps: 12})
	if err != nil {
		t.Fatal(err)
	}
	runSingle, err := an.Run(t.Context(), single.Probs)
	if err != nil {
		t.Fatal(err)
	}
	nSingle, err := testlen.Required(runSingle.DetectProbs(faults), 0.95)
	if err != nil {
		t.Fatal(err)
	}

	multi, err := OptimizeMulti(t.Context(), an, faults, MultiOptions{
		Sets:              2,
		SessionConfidence: 0.95,
		PerSet:            Options{MaxSweeps: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Tuples) != 2 {
		t.Fatalf("expected 2 distributions, got %d", len(multi.Tuples))
	}
	if got := multi.TotalPatterns(); got >= nSingle {
		t.Errorf("two sessions (%d patterns) should beat one tuple (%d) on a conflicted circuit", got, nSingle)
	}
	// Every fault assigned exactly once.
	total := 0
	for _, a := range multi.Assigned {
		total += a
	}
	if total != len(faults) {
		t.Errorf("assigned %d of %d faults", total, len(faults))
	}
}

func TestOptimizeMultiSingleSetDegenerates(t *testing.T) {
	c := conflicted(t)
	an, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(c)
	multi, err := OptimizeMulti(t.Context(), an, faults, MultiOptions{Sets: 1, PerSet: Options{MaxSweeps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Tuples) != 1 {
		t.Fatalf("tuples = %d", len(multi.Tuples))
	}
	if multi.Assigned[0] != len(faults) {
		t.Error("single session must take every fault")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 3 {
		t.Errorf("even median (upper) = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}
