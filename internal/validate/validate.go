// Package validate is the statistical self-validation harness: it
// cross-checks the three per-fault detection-probability oracles the
// repository owns against each other and fails loudly on disagreement.
//
// The three oracles are independent implementations of the same
// quantity:
//
//  1. analytic — the PROTEST estimator (internal/core compiled
//     programs), fast and heuristic: its conditioning is bounded by
//     MAXVERS/MAXLIST, so per-fault values carry model error by design;
//  2. exact — ROBDD detectability functions (internal/bdd), exact but
//     budget-bounded: circuits whose diagrams outgrow the node budget
//     are skipped with a recorded reason, never silently passed;
//  3. empirical — Monte-Carlo detection frequencies from the fault
//     simulator, an unbiased estimate whose pattern count the harness
//     sizes ProbTest-style from a target ε and the minimum outcome
//     probability, so the run carries a 1-ε coverage guarantee.
//
// The checks reflect what each oracle can promise.  Between the two
// truth chains (exact and empirical) the harness runs a hard per-fault
// consistency test: the exact value must lie inside the Wilson score
// interval of the measured frequency (Bonferroni-adjusted to keep the
// family-wise false-flag rate at ε), with an exact binomial tail test
// taking over in the small-count regime where normal approximations
// lose calibration.  The analytic estimator is heuristic — per-fault
// deviations of 0.2-0.4 against exact values are normal on the
// registry circuits, exactly as the paper's own Table 1 reports — so
// it is gated two ways: a gross per-fault tolerance that catches
// catastrophic breakage (swapped faults, wrong indexing, unit errors),
// and per-circuit aggregate envelopes (correlation, rank correlation,
// average error, bias) calibrated on the registry that catch the
// subtle regressions per-fault tolerances cannot, such as a small
// systematic bias injected by the test-only perturbation hook.
package validate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"protest/internal/bdd"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/stats"
)

// Spec is the serializable configuration of one validation run.  The
// zero value selects the documented defaults; explicitly set fields
// outside their ranges make Run fail instead of being replaced.
type Spec struct {
	// Epsilon is the target family-wise error rate ε of the run, in
	// (0,1) (default 0.05): the per-fault statistical checks are
	// Bonferroni-adjusted so a healthy tool flags anything with
	// probability at most ε, and the Monte-Carlo pattern count is sized
	// so every fault above the outcome-probability floor is seen at
	// least once with probability at least 1-ε.
	Epsilon float64 `json:"epsilon,omitempty"`
	// PMinFloor is the smallest outcome probability the coverage
	// guarantee extends to (default 1e-4).  Faults whose best-known
	// detection probability is below the floor stay interval-checked
	// but are excluded from the seen-at-least-once guarantee — without
	// a floor, one near-redundant fault would demand an astronomical
	// pattern count.
	PMinFloor float64 `json:"pmin_floor,omitempty"`
	// MinPatterns and MaxPatterns clamp the ProbTest-derived pattern
	// count (defaults 16384 and 1<<20).  When the clamp truncates the
	// derived count the report says so and the coverage check is
	// skipped rather than flaky.
	MinPatterns int `json:"min_patterns,omitempty"`
	MaxPatterns int `json:"max_patterns,omitempty"`
	// BDDBudget is the node budget of the exact oracle (default 1<<20);
	// circuits that blow it are recorded as skips.
	BDDBudget int `json:"bdd_budget,omitempty"`
	// GrossTol is the per-fault tolerance applied to the heuristic
	// analytic oracle (default 0.5): |analytic - truth| beyond it — or
	// an analytic value beyond GrossTol outside the empirical Wilson
	// interval — flags the fault.  It is deliberately loose; the
	// aggregate envelope is the tight gate for the analytic chain.
	GrossTol float64 `json:"gross_tol,omitempty"`
	// Envelope, when non-nil, overrides the aggregate envelope.  When
	// nil, uniform-input runs on registry circuits use the calibrated
	// per-circuit envelope and everything else the conservative
	// default.
	Envelope *Envelope `json:"envelope,omitempty"`
}

// ErrBadSpec flags a Spec whose explicitly-set values are out of range.
// Match with errors.Is; it is a caller mistake, not a harness failure.
// Its text names no phase: the simulate, coverage-curve and pipeline
// inputs of package protest use it too, and each wrapper, this
// package's included, adds its own context.
var ErrBadSpec = errors.New("bad spec")

// Validate reports whether the spec's explicitly set fields are inside
// their documented ranges, without modifying the spec.  Run performs
// the same checks itself.
func (s Spec) Validate() error { return s.fill() }

func (s *Spec) fill() error {
	switch {
	case s.Epsilon == 0:
		s.Epsilon = 0.05
	case s.Epsilon <= 0 || s.Epsilon >= 1:
		return fmt.Errorf("validate: %w: epsilon %v out of (0,1)", ErrBadSpec, s.Epsilon)
	}
	switch {
	case s.PMinFloor == 0:
		s.PMinFloor = 1e-4
	case s.PMinFloor <= 0 || s.PMinFloor >= 1:
		return fmt.Errorf("validate: %w: pmin_floor %v out of (0,1)", ErrBadSpec, s.PMinFloor)
	}
	if s.MinPatterns <= 0 {
		s.MinPatterns = 16384
	}
	if s.MaxPatterns <= 0 {
		s.MaxPatterns = 1 << 20
	}
	if s.MaxPatterns < s.MinPatterns {
		return fmt.Errorf("validate: %w: max_patterns %d below min_patterns %d", ErrBadSpec, s.MaxPatterns, s.MinPatterns)
	}
	if s.BDDBudget <= 0 {
		s.BDDBudget = 1 << 20
	}
	switch {
	case s.GrossTol == 0:
		s.GrossTol = 0.5
	case s.GrossTol < 0:
		return fmt.Errorf("validate: %w: gross_tol %v negative", ErrBadSpec, s.GrossTol)
	}
	return nil
}

// Config is the full runtime configuration of Run: the serializable
// Spec plus the hooks that never travel over the wire.
type Config struct {
	Spec
	// Perturb, when non-nil, is invoked on (a copy of) the analytic
	// detection probabilities before any check runs.  It exists so the
	// harness can prove its own sensitivity: tests inject a small
	// systematic bias here and assert the run flags it.
	Perturb func(analytic []float64)
}

// SimFunc runs the Monte-Carlo oracle: numPatterns random patterns
// through the fault simulator, returning per-fault detection counts.
// The Session supplies a closure here, which is what routes the
// measurement through its configured engine, worker count and shard
// pool.
type SimFunc func(ctx context.Context, numPatterns int) (*faultsim.Result, error)

// Flag is one cross-check failure, with everything needed to
// reproduce it: circuit, fault, the three oracle values and the
// interval the offending value fell outside of.
type Flag struct {
	Circuit string `json:"circuit"`
	// Fault names the flagged fault; aggregate (envelope) flags leave
	// it empty.
	Fault string `json:"fault,omitempty"`
	// Kind identifies the failed check: "range", "exact-vs-empirical",
	// "analytic-vs-exact", "analytic-vs-empirical", "coverage",
	// "patterns" or "envelope".
	Kind     string  `json:"kind"`
	Analytic float64 `json:"analytic,omitempty"`
	// Exact is the BDD value, present only when the exact oracle ran.
	Exact     *float64 `json:"exact,omitempty"`
	Empirical float64  `json:"empirical,omitempty"`
	Detected  int      `json:"detected,omitempty"`
	Patterns  int      `json:"patterns,omitempty"`
	// Lo and Hi bound the interval the check tested against (Wilson
	// interval for statistical checks, tolerance band otherwise).
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
	Detail string  `json:"detail"`
}

// Skip records a check that could not run and why — a skipped check is
// reported, never silently passed.
type Skip struct {
	// Stage is "bdd-build", "bdd-detect" or "coverage".
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
}

// Report is the serializable outcome of validating one circuit.
type Report struct {
	Circuit string  `json:"circuit"`
	Faults  int     `json:"faults"`
	Epsilon float64 `json:"epsilon"`

	// PMin is the minimum outcome probability the run sized its
	// pattern count for, RequiredPatterns the ProbTest-derived count
	// N = ceil(ln(ε/outcomes)/ln(1-pmin)), and Patterns the count
	// actually run after clamping to [MinPatterns, MaxPatterns].
	// GuaranteeTruncated reports Patterns < RequiredPatterns;
	// AchievedEpsilon is the coverage-guarantee ε the executed count
	// actually delivers (= ε when not truncated, larger when it is).
	PMin               float64 `json:"pmin"`
	RequiredPatterns   int64   `json:"required_patterns"`
	Patterns           int     `json:"patterns"`
	GuaranteeTruncated bool    `json:"guarantee_truncated,omitempty"`
	AchievedEpsilon    float64 `json:"achieved_epsilon"`

	// HasExact reports whether the BDD oracle participated; when it
	// did, BDDNodes is the diagram size it needed.
	HasExact bool `json:"has_exact"`
	BDDNodes int  `json:"bdd_nodes,omitempty"`

	// Checks counts the individual cross-checks performed; Flags holds
	// every failure and Skips every check that could not run.
	Checks int    `json:"checks"`
	Flags  []Flag `json:"flags,omitempty"`
	Skips  []Skip `json:"skips,omitempty"`

	// VsEmpirical summarizes analytic vs Monte-Carlo over all faults
	// (the paper's Table 1 measures); VsExact additionally summarizes
	// analytic vs BDD when the exact oracle ran.  Spearman is the rank
	// correlation of analytic against the best truth oracle available.
	VsEmpirical stats.Summary  `json:"vs_empirical"`
	VsExact     *stats.Summary `json:"vs_exact,omitempty"`
	Spearman    float64        `json:"spearman"`

	// Envelope is the aggregate gate the analytic chain was held to,
	// EnvelopeSource where it came from: "spec", "calibrated" or
	// "default".
	Envelope       Envelope `json:"envelope"`
	EnvelopeSource string   `json:"envelope_source"`

	// Pass is true iff no check flagged.
	Pass bool `json:"pass"`
}

// ProbTestPatterns returns the ProbTest-style repetition count: the
// smallest N with outcomes·(1-pmin)^N <= eps, i.e. after N trials
// every one of `outcomes` outcomes with probability at least pmin has
// been seen at least once with probability at least 1-eps.  This is
// SNIPPETS.md snippet 1 (run count from minimum outcome probability)
// with a union bound over the outcome set.
func ProbTestPatterns(eps, pmin float64, outcomes int) int64 {
	if outcomes < 1 {
		outcomes = 1
	}
	n := math.Log(eps/float64(outcomes)) / math.Log1p(-pmin)
	if n < 1 || math.IsNaN(n) {
		return 1
	}
	return int64(math.Ceil(n))
}

// Run cross-checks the three oracles on one circuit.
//
// analytic holds the estimator's per-fault detection probabilities
// (index-aligned with faults) under inputProbs; sim runs the
// Monte-Carlo oracle.  The exact oracle is built internally from the
// circuit under cfg.BDDBudget.  Run errors only on infrastructure
// failure (bad spec, cancelled context, simulator error) — oracle
// disagreement is never an error, it is what the Flags in the report
// are for.
func Run(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, analytic []float64, inputProbs []float64, sim SimFunc, cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(analytic) != len(faults) {
		return nil, fmt.Errorf("validate: %d analytic values for %d faults", len(analytic), len(faults))
	}
	rep := &Report{
		Circuit: c.Name,
		Faults:  len(faults),
		Epsilon: cfg.Epsilon,
	}

	// The perturbation hook sees a copy: the caller's slice (often a
	// Session-cached analysis) stays untouched.
	analytic = append([]float64(nil), analytic...)
	if cfg.Perturb != nil {
		cfg.Perturb(analytic)
	}

	// Oracle 2: exact detection probabilities through BDDs, skipped
	// with a recorded reason when the diagrams outgrow the budget —
	// either while building the good-circuit BDDs or later, while
	// deriving a fault's detectability function.
	var exact []float64
	bc, err := bdd.FromCircuit(c, cfg.BDDBudget)
	switch {
	case err == nil:
		exact, err = bc.DetectProbs(faults, inputProbs)
		if err != nil {
			if !isBudget(err) {
				return nil, err
			}
			rep.Skips = append(rep.Skips, Skip{
				Stage:  "bdd-detect",
				Reason: fmt.Sprintf("detectability function over budget %d: %v", cfg.BDDBudget, err),
			})
			exact = nil
		} else {
			rep.HasExact = true
			rep.BDDNodes = bc.B.NumNodes()
		}
	case isBudget(err):
		rep.Skips = append(rep.Skips, Skip{
			Stage:  "bdd-build",
			Reason: fmt.Sprintf("circuit BDD over budget %d: %v", cfg.BDDBudget, err),
		})
	default:
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Size the Monte-Carlo run ProbTest-style from the best truth
	// estimate available per fault: exact when the BDD oracle ran,
	// analytic otherwise.
	truth := analytic
	if exact != nil {
		truth = exact
	}
	pmin, outcomes := 1.0, 0
	for _, p := range truth {
		if p >= cfg.PMinFloor && !math.IsNaN(p) {
			outcomes++
			if p < pmin {
				pmin = p
			}
		}
	}
	if outcomes == 0 {
		pmin = cfg.PMinFloor
	}
	rep.PMin = pmin
	trials := ProbTestPatterns(cfg.Epsilon, pmin, outcomes)
	required := trials
	transition := false
	for _, f := range faults {
		if f.Kind.IsTransition() {
			transition = true
			break
		}
	}
	if transition {
		// Transition faults draw one Bernoulli trial per launch/capture
		// pair, and the first slot of every 64-pattern block has no
		// launch pattern — so inflate the pattern count until the
		// per-fault trial count meets the ProbTest requirement.
		required += (required + 62) / 63
		for int64(faultsim.TransitionOpportunities(int(required))) < trials {
			required++
		}
	}
	rep.RequiredPatterns = required
	n := rep.RequiredPatterns
	if n < int64(cfg.MinPatterns) {
		n = int64(cfg.MinPatterns)
	}
	if n > int64(cfg.MaxPatterns) {
		n = int64(cfg.MaxPatterns)
		rep.GuaranteeTruncated = n < rep.RequiredPatterns
	}
	if transition && n < 2 {
		// One pattern holds no launch/capture pair: P_SIM would be 0/0.
		return nil, fmt.Errorf("validate: %w: a transition run needs at least 2 patterns, max_patterns is %d", ErrBadSpec, cfg.MaxPatterns)
	}
	rep.Patterns = int(n)
	rep.AchievedEpsilon = cfg.Epsilon
	if rep.GuaranteeTruncated && outcomes > 0 {
		eff := n
		if transition {
			eff = int64(faultsim.TransitionOpportunities(int(n)))
		}
		rep.AchievedEpsilon = math.Min(1, float64(outcomes)*math.Exp(float64(eff)*math.Log1p(-pmin)))
		rep.Skips = append(rep.Skips, Skip{
			Stage: "coverage",
			Reason: fmt.Sprintf("pattern count clamped to %d below the required %d; seen-at-least-once check would be flaky (achieved eps %.3g)",
				rep.Patterns, rep.RequiredPatterns, rep.AchievedEpsilon),
		})
	}

	// Oracle 3: the Monte-Carlo measurement.
	res, err := sim(ctx, rep.Patterns)
	if err != nil {
		return nil, err
	}
	if len(res.Detected) != len(faults) {
		return nil, fmt.Errorf("validate: simulator returned %d counts for %d faults", len(res.Detected), len(faults))
	}

	uniform := true
	for _, p := range inputProbs {
		if p != 0.5 {
			uniform = false
			break
		}
	}
	rep.runChecks(c, faults, analytic, exact, res, uniform, cfg)
	rep.Pass = len(rep.Flags) == 0
	return rep, nil
}

func isBudget(err error) bool {
	return errors.Is(err, bdd.ErrNodeBudget)
}
