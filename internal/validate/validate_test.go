package validate

import (
	"context"
	"math"
	"strings"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

// harness bundles the oracle inputs Run needs for one registry
// circuit, built from the internal layers directly.
type harness struct {
	c        *circuit.Circuit
	faults   []fault.Fault
	analytic []float64
	probs    []float64
	sim      SimFunc
}

func openHarness(t *testing.T, name string) *harness {
	t.Helper()
	c, ok := circuits.Lookup(name)
	if !ok {
		t.Fatalf("unknown registry circuit %q", name)
	}
	faults := fault.Collapse(c)
	prog, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(t.Context(), core.UniformProbs(c))
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		c:        c,
		faults:   faults,
		analytic: res.DetectProbs(faults),
		probs:    core.UniformProbs(c),
		sim: func(ctx context.Context, n int) (*faultsim.Result, error) {
			gen := pattern.NewUniform(len(c.Inputs), 1)
			return faultsim.MeasureDetectionNaive(ctx, c, faults, gen, n, nil)
		},
	}
}

func (h *harness) run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), h.c, h.faults, h.analytic, h.probs, h.sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSpecFillDefaults(t *testing.T) {
	var s Spec
	if err := s.fill(); err != nil {
		t.Fatal(err)
	}
	if s.Epsilon != 0.05 || s.PMinFloor != 1e-4 || s.MinPatterns != 16384 ||
		s.MaxPatterns != 1<<20 || s.BDDBudget != 1<<20 || s.GrossTol != 0.5 {
		t.Errorf("unexpected defaults: %+v", s)
	}
}

func TestSpecFillRejectsBadRanges(t *testing.T) {
	bad := []Spec{
		{Epsilon: 1.5},
		{Epsilon: -0.1},
		{PMinFloor: 1},
		{PMinFloor: -1e-4},
		{MinPatterns: 100, MaxPatterns: 50},
		{GrossTol: -0.5},
	}
	for _, s := range bad {
		spec := s
		if err := spec.fill(); err == nil {
			t.Errorf("Spec %+v should be rejected", s)
		}
	}
}

func TestProbTestPatterns(t *testing.T) {
	// Single outcome at p=1/8: N = ceil(ln 0.05 / ln 0.875) = 23.
	if got := ProbTestPatterns(0.05, 0.125, 1); got != 23 {
		t.Errorf("ProbTestPatterns(0.05, 0.125, 1) = %d, want 23", got)
	}
	// Union bound over 28 outcomes pushes the count up.
	if got := ProbTestPatterns(0.05, 0.125, 28); got != 48 {
		t.Errorf("ProbTestPatterns(0.05, 0.125, 28) = %d, want 48", got)
	}
	// The count must actually deliver the guarantee, the smaller one
	// must not.
	n := ProbTestPatterns(0.01, 1e-3, 500)
	miss := 500 * math.Pow(1-1e-3, float64(n))
	if miss > 0.01 {
		t.Errorf("N=%d misses with probability %v > 0.01", n, miss)
	}
	missPrev := 500 * math.Pow(1-1e-3, float64(n-1))
	if missPrev <= 0.01 {
		t.Errorf("N=%d is not minimal (N-1 already suffices)", n)
	}
	if got := ProbTestPatterns(0.05, 0.9999, 0); got != 1 {
		t.Errorf("degenerate ProbTestPatterns = %d, want 1", got)
	}
}

func TestRunC17CleanPass(t *testing.T) {
	h := openHarness(t, "c17")
	rep := h.run(t, Config{})
	if !rep.Pass || len(rep.Flags) != 0 {
		t.Fatalf("clean c17 run must pass, got flags %+v", rep.Flags)
	}
	if !rep.HasExact {
		t.Error("c17 BDD must build under the default budget")
	}
	if len(rep.Skips) != 0 {
		t.Errorf("unexpected skips: %+v", rep.Skips)
	}
	if rep.EnvelopeSource != "calibrated" {
		t.Errorf("envelope source = %q, want calibrated", rep.EnvelopeSource)
	}
	if rep.Patterns < 16384 {
		t.Errorf("patterns = %d, below the default floor", rep.Patterns)
	}
	if rep.Checks == 0 || rep.VsExact == nil {
		t.Errorf("report incomplete: %+v", rep)
	}
}

// TestPerturbationIsCaught is the harness proving its own sensitivity:
// an injected systematic analytic bias — far smaller than any
// per-fault tolerance — must be flagged, in either direction.
func TestPerturbationIsCaught(t *testing.T) {
	h := openHarness(t, "c17")
	for _, delta := range []float64{+0.05, -0.05} {
		cfg := Config{Perturb: func(a []float64) {
			for i := range a {
				a[i] += delta
			}
		}}
		rep := h.run(t, cfg)
		if rep.Pass {
			t.Fatalf("injected %+.2f analytic bias must be flagged", delta)
		}
		found := false
		for _, f := range rep.Flags {
			if f.Kind == "envelope" && strings.Contains(f.Detail, "bias") {
				found = true
			}
		}
		if !found {
			t.Errorf("expected an envelope bias flag for delta %+.2f, got %+v", delta, rep.Flags)
		}
	}
}

// TestPerturbationDoesNotLeak: the hook must act on a copy, never on
// the caller's slice.
func TestPerturbationDoesNotLeak(t *testing.T) {
	h := openHarness(t, "c17")
	before := append([]float64(nil), h.analytic...)
	h.run(t, Config{Perturb: func(a []float64) {
		for i := range a {
			a[i] = 0
		}
	}})
	for i := range before {
		if h.analytic[i] != before[i] {
			t.Fatal("Perturb mutated the caller's analytic slice")
		}
	}
}

// TestBrokenSimulatorIsCaught feeds the harness a dead Monte-Carlo
// oracle; the exact-vs-empirical hard gate and the coverage check must
// both fire.
func TestBrokenSimulatorIsCaught(t *testing.T) {
	h := openHarness(t, "c17")
	h.sim = func(ctx context.Context, n int) (*faultsim.Result, error) {
		return &faultsim.Result{
			Faults:   h.faults,
			Detected: make([]int, len(h.faults)),
			Applied:  n,
		}, nil
	}
	rep := h.run(t, Config{})
	if rep.Pass {
		t.Fatal("a simulator detecting nothing must not pass")
	}
	kinds := map[string]bool{}
	for _, f := range rep.Flags {
		kinds[f.Kind] = true
	}
	for _, want := range []string{"exact-vs-empirical", "coverage"} {
		if !kinds[want] {
			t.Errorf("missing %q flag against the dead simulator (got kinds %v)", want, kinds)
		}
	}
}

// TestBrokenSimulatorWithoutExactIsCaught: when the exact oracle is
// unavailable the aggregate envelope is the net that catches a dead
// Monte-Carlo chain — a constant measurement has zero correlation.
func TestBrokenSimulatorWithoutExactIsCaught(t *testing.T) {
	h := openHarness(t, "c17")
	h.sim = func(ctx context.Context, n int) (*faultsim.Result, error) {
		return &faultsim.Result{
			Faults:   h.faults,
			Detected: make([]int, len(h.faults)),
			Applied:  n,
		}, nil
	}
	rep := h.run(t, Config{Spec: Spec{BDDBudget: 3, MinPatterns: 1024}})
	if rep.Pass {
		t.Fatal("a dead simulator must not pass even without the exact oracle")
	}
	found := false
	for _, f := range rep.Flags {
		if f.Kind == "envelope" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an envelope flag, got %+v", rep.Flags)
	}
}

// TestNaNAnalyticIsCaught: a NaN estimate is flagged as a range error,
// never silently absorbed into the aggregates.
func TestNaNAnalyticIsCaught(t *testing.T) {
	h := openHarness(t, "c17")
	cfg := Config{Perturb: func(a []float64) { a[0] = math.NaN() }}
	rep := h.run(t, cfg)
	if rep.Pass {
		t.Fatal("NaN analytic value must not pass")
	}
	found := false
	for _, f := range rep.Flags {
		if f.Kind == "range" && f.Fault != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a per-fault range flag, got %+v", rep.Flags)
	}
}

// TestBDDBudgetSkipIsTypedAndReported: an over-budget circuit must
// surface as a recorded skip with the build stage named, not as an
// error and not as a silent pass of the exact checks.
func TestBDDBudgetSkipIsTypedAndReported(t *testing.T) {
	h := openHarness(t, "c17")
	cfg := Config{Spec: Spec{
		BDDBudget:   3, // below even c17's diagram
		MinPatterns: 1024,
		Envelope:    &DefaultEnvelope,
	}}
	rep := h.run(t, cfg)
	if rep.HasExact {
		t.Fatal("HasExact must be false when the BDD blew the budget")
	}
	if len(rep.Skips) != 1 || rep.Skips[0].Stage != "bdd-build" {
		t.Fatalf("want one bdd-build skip, got %+v", rep.Skips)
	}
	if !strings.Contains(rep.Skips[0].Reason, "budget") {
		t.Errorf("skip reason %q does not mention the budget", rep.Skips[0].Reason)
	}
	if rep.VsExact != nil {
		t.Error("VsExact must be absent without the exact oracle")
	}
	if !rep.Pass {
		t.Errorf("skip must not flag by itself, got %+v", rep.Flags)
	}
}

func TestResolveEnvelope(t *testing.T) {
	custom := &Envelope{CorrMin: 0.1}
	if env, src := resolveEnvelope("c17", true, Config{Spec: Spec{Envelope: custom}}); src != "spec" || env != *custom {
		t.Errorf("explicit envelope not honored: %v %q", env, src)
	}
	if _, src := resolveEnvelope("c17", true, Config{}); src != "calibrated" {
		t.Errorf("uniform c17 should be calibrated, got %q", src)
	}
	if env, src := resolveEnvelope("c17", false, Config{}); src != "default" || env != DefaultEnvelope {
		t.Errorf("non-uniform run must fall back to default, got %v %q", env, src)
	}
	if _, src := resolveEnvelope("no-such-circuit", true, Config{}); src != "default" {
		t.Errorf("unknown circuit must fall back to default, got %q", src)
	}
}

// TestGuaranteeTruncationIsReported: clamping the pattern count below
// the ProbTest requirement must be visible — truncated flag, a
// recorded coverage skip, and an achieved ε above the target.
func TestGuaranteeTruncationIsReported(t *testing.T) {
	h := openHarness(t, "c17")
	cfg := Config{Spec: Spec{
		Epsilon:     1e-9, // pushes the requirement past the tight clamp below
		MinPatterns: 64,
		MaxPatterns: 64,
		Envelope:    &DefaultEnvelope,
	}}
	rep := h.run(t, cfg)
	if !rep.GuaranteeTruncated {
		t.Fatalf("expected truncation at %d patterns for required %d", rep.Patterns, rep.RequiredPatterns)
	}
	if rep.AchievedEpsilon <= 1e-9 {
		t.Errorf("achieved epsilon %v should exceed the unreachable target", rep.AchievedEpsilon)
	}
	foundSkip := false
	for _, s := range rep.Skips {
		if s.Stage == "coverage" {
			foundSkip = true
		}
	}
	if !foundSkip {
		t.Errorf("truncation must record a coverage skip, got %+v", rep.Skips)
	}
}
