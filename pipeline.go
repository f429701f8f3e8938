package protest

import (
	"context"
	"fmt"
	"strings"

	"protest/internal/bist"
	"protest/internal/pattern"
	"protest/internal/stats"
	"protest/internal/widesim"
)

// PipelineSpec configures one Session.Run call — the full PROTEST
// workflow of the paper in one shot.  The zero value is usable: it
// analyzes under uniform patterns, derives the test length for full
// coverage at 95% confidence, and validates by fault simulation.
// Non-zero Fraction/Confidence values outside their ranges make Run
// fail rather than being silently replaced.  The spec says what to
// compute and the Session says how: every phase runs on the Session's
// engine and worker count (WithSimEngine, WithWorkers), and a Session
// opened WithShardPool shards the run's fault simulation across the
// pool.  The report is the same either way.
type PipelineSpec struct {
	// Fraction is the paper's d: the fraction of easiest faults the
	// test must cover, in (0,1] (default 1.0).
	Fraction float64 `json:"fraction"`
	// Confidence is the paper's e: the probability that the computed
	// test length detects every selected fault, in (0,1)
	// (default 0.95).
	Confidence float64 `json:"confidence"`
	// Optimize enables the weighted-pattern phase: input probabilities
	// are hill-climbed, quantized, re-analyzed and re-validated.
	Optimize bool `json:"optimize"`
	// OptimizeOptions tunes the climb; the zero value selects the
	// documented defaults with the Session's fast parameters.
	OptimizeOptions OptimizeOptions `json:"-"`
	// QuantizeGrid snaps the optimized tuple onto the k/grid lattice a
	// hardware generator realizes.  The zero value selects the paper's
	// default of 16; any other value <= 1 (e.g. -1 or 1) disables
	// quantization and keeps the climb's exact tuple, matching
	// QuantizeProbs, which returns its input unchanged for such grids.
	QuantizeGrid int `json:"quantize_grid"`
	// SimPatterns fixes the fault-simulation budget per plan.  Any
	// value <= 0 means "derive it": the budget is the plan's computed
	// test length, capped at MaxSimPatterns.
	SimPatterns int `json:"sim_patterns"`
	// MaxSimPatterns caps the derived simulation budget (default 4096)
	// so circuits with astronomical uniform test lengths — COMP needs
	// ~5·10^8 patterns — still validate in bounded time.
	MaxSimPatterns int `json:"max_sim_patterns"`
	// BIST, when non-nil, additionally runs a MISR self-test session
	// driven by the final pattern source (optimized weights when the
	// optimize phase ran, uniform otherwise), on the Session's engine
	// at the run's width.
	BIST *BISTPlan `json:"bist,omitempty"`
	// SimWidth overrides the Session's WithSimWidth setting for this
	// run, the BIST phase's capture width included: 1 or 8 forces that
	// many pattern blocks per sweep; 0 keeps the Session's setting,
	// whose own default is 8-block sweeps.  Results are
	// bit-identical at every width; any other value fails with
	// ErrBadSpec.
	SimWidth int `json:"sim_width,omitempty"`
	// FaultModel overrides the Session's WithFaultModel setting for
	// this run: FaultModelStuckAt, FaultModelBridging or
	// FaultModelTransition.  The empty value keeps the Session default.
	FaultModel FaultModel `json:"fault_model,omitempty"`
	// Progress, when non-nil, overrides the Session's WithProgress
	// callback for this run only, receiving the same (phase, fraction)
	// stream.  It lets several callers share one concurrent Session
	// and still observe their own run — the HTTP server uses it to
	// stream per-request progress — and must be safe for concurrent
	// calls when the run uses multiple workers.
	Progress func(Phase, float64) `json:"-"`
}

func (spec *PipelineSpec) fill() error {
	switch {
	case spec.Fraction == 0:
		spec.Fraction = 1
	case spec.Fraction < 0 || spec.Fraction > 1:
		return fmt.Errorf("protest: pipeline fraction %v out of (0,1]", spec.Fraction)
	}
	switch {
	case spec.Confidence == 0:
		spec.Confidence = 0.95
	case spec.Confidence < 0 || spec.Confidence >= 1:
		return fmt.Errorf("protest: pipeline confidence %v out of (0,1)", spec.Confidence)
	}
	if spec.QuantizeGrid == 0 {
		spec.QuantizeGrid = 16
	}
	if spec.MaxSimPatterns <= 0 {
		spec.MaxSimPatterns = 4096
	}
	if err := widesim.CheckWidth(spec.SimWidth); err != nil {
		return fmt.Errorf("pipeline: %w: %v", ErrBadSpec, err)
	}
	if !spec.FaultModel.Valid() {
		return fmt.Errorf("pipeline: %w: %q", ErrBadFaultModel, string(spec.FaultModel))
	}
	if b := spec.BIST; b != nil {
		if b.Cycles < 0 {
			return fmt.Errorf("pipeline: %w: %d BIST cycles, want at least 0 (0 = 1024)", ErrBadSpec, b.Cycles)
		}
		if b.MISRWidth != 0 {
			if _, err := bist.NewMISR(b.MISRWidth, 0); err != nil {
				return fmt.Errorf("pipeline: %w: %v", ErrBadSpec, err)
			}
		}
	}
	return nil
}

// Normalize returns a copy of the spec with every documented
// zero-value default applied — Fraction 1, Confidence 0.95,
// QuantizeGrid 16, MaxSimPatterns 4096 — and an error when an
// explicitly set field is outside its range.  Run applies exactly
// these defaults, so two specs with equal normal forms produce
// bit-identical reports; the canonical form is what request
// deduplication keys on (a spec relying on a default and one spelling
// the default out coalesce onto one computation).
func (spec PipelineSpec) Normalize() (PipelineSpec, error) {
	err := spec.fill()
	return spec, err
}

// Validate reports whether the spec's explicitly set fields are inside
// their documented ranges, without modifying the spec.  Run performs
// the same checks itself (plus defaulting), so Validate is only needed
// to reject a bad spec early — e.g. at a service boundary, before the
// request is admitted and queued.
func (spec PipelineSpec) Validate() error {
	_, err := spec.Normalize()
	return err
}

// Report is the serializable outcome of one Session.Run pipeline: the
// circuit interface, the uniform-pattern plan, and (when the optimize
// phase ran) the weighted-pattern plan, each with its estimated test
// length and its fault-simulation validation.
type Report struct {
	Circuit    string  `json:"circuit"`
	Gates      int     `json:"gates"`
	Inputs     int     `json:"inputs"`
	Outputs    int     `json:"outputs"`
	Faults     int     `json:"faults"`
	Fraction   float64 `json:"fraction"`
	Confidence float64 `json:"confidence"`

	// FaultModel names the fault universe of the run; omitted for the
	// default stuck-at model (keeping pre-model reports byte-identical).
	FaultModel string `json:"fault_model,omitempty"`

	Uniform   *PlanReport `json:"uniform"`
	Optimized *PlanReport `json:"optimized,omitempty"`
	BIST      *BISTReport `json:"bist,omitempty"`
}

// PlanReport describes one pattern plan (a pattern source plus its
// test length) with estimated and simulated evidence.
type PlanReport struct {
	// InputProbs is the per-input pattern probability tuple; nil means
	// uniform p = 0.5.
	InputProbs []float64 `json:"input_probs,omitempty"`
	// TestLength is the estimated N(F_d, e); -1 when no pattern count
	// reaches the confidence (see Unreachable).
	TestLength int64 `json:"test_length"`
	// Unreachable carries the reason when TestLength is -1.
	Unreachable string `json:"unreachable,omitempty"`
	// HardestFault names the fault with the smallest estimated
	// detection probability, HardestProb.
	HardestFault string  `json:"hardest_fault"`
	HardestProb  float64 `json:"hardest_prob"`
	// ExpectedCoverage is the estimator's predicted fault coverage at
	// the simulated pattern count.
	ExpectedCoverage float64 `json:"expected_coverage"`
	// Simulated validates the plan by fault simulation.
	Simulated *SimReport `json:"simulated,omitempty"`
}

// SimReport summarizes a fault-simulation validation run.
type SimReport struct {
	Patterns int `json:"patterns"`
	// Coverage is the simulated fault coverage in [0,1].
	Coverage float64 `json:"coverage"`
	// Summary compares estimated detection probabilities against the
	// measured P_SIM (max/average error, correlation, bias).
	Summary Summary `json:"summary"`
}

// BISTReport summarizes the optional MISR self-test session.
type BISTReport struct {
	Cycles        int     `json:"cycles"`
	MISRWidth     uint    `json:"misr_width"`
	GoodSignature uint64  `json:"good_signature"`
	Detected      int     `json:"detected"`
	Aliased       int     `json:"aliased"`
	Coverage      float64 `json:"coverage"`
}

// String renders the report as a compact human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: %d gates, %d inputs, %d outputs, %d faults\n",
		r.Circuit, r.Gates, r.Inputs, r.Outputs, r.Faults)
	fmt.Fprintf(&b, "target: d=%.2f e=%.3f\n", r.Fraction, r.Confidence)
	r.Uniform.render(&b, "uniform")
	if r.Optimized != nil {
		r.Optimized.render(&b, "optimized")
	}
	if r.BIST != nil {
		fmt.Fprintf(&b, "bist: %d cycles, %d-bit MISR signature %x, coverage %.2f%% (%d aliased)\n",
			r.BIST.Cycles, r.BIST.MISRWidth, r.BIST.GoodSignature, 100*r.BIST.Coverage, r.BIST.Aliased)
	}
	return b.String()
}

func (p *PlanReport) render(b *strings.Builder, label string) {
	fmt.Fprintf(b, "%s: ", label)
	if p.TestLength < 0 {
		fmt.Fprintf(b, "N unreachable (%s)", p.Unreachable)
	} else {
		fmt.Fprintf(b, "N = %d", p.TestLength)
	}
	fmt.Fprintf(b, "; hardest %s P=%.3e", p.HardestFault, p.HardestProb)
	if p.Simulated != nil {
		fmt.Fprintf(b, "; simulated %d patterns -> %.2f%% coverage (expected %.2f%%, corr %.3f)",
			p.Simulated.Patterns, 100*p.Simulated.Coverage, 100*p.ExpectedCoverage, p.Simulated.Summary.Corr)
	}
	b.WriteByte('\n')
}

// Run executes the full paper pipeline in one call: estimate detection
// probabilities, derive the random test length, optionally optimize
// and quantize the input weights, validate each plan by fault
// simulation, and (optionally) run a MISR self-test — returning
// everything as one serializable Report.  Cancelling ctx aborts the
// pipeline promptly with an error matching ErrCanceled and leaves the
// Session usable.
func (s *Session) Run(ctx context.Context, spec PipelineSpec) (*Report, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	// The overrides apply to every phase of this run only; they travel
	// in the per-call configuration, so concurrent runs with different
	// overrides never observe each other.
	cfg := s.cfg().with(spec.SimWidth, spec.FaultModel, spec.Progress)
	faults := s.modelFaults(cfg.model)
	if len(faults) == 0 {
		return nil, fmt.Errorf("pipeline: %s model: %w", cfg.model, ErrNoFaults)
	}

	rep := &Report{
		Circuit:    s.c.Name,
		Gates:      s.c.NumGates(),
		Inputs:     len(s.c.Inputs),
		Outputs:    len(s.c.Outputs),
		Faults:     len(faults),
		Fraction:   spec.Fraction,
		Confidence: spec.Confidence,
	}
	if cfg.model != FaultModelStuckAt {
		rep.FaultModel = string(cfg.model)
	}

	// Phase 1+2: uniform analysis and test length.
	uniform, err := s.planReport(ctx, spec, nil, cfg)
	if err != nil {
		return nil, err
	}
	rep.Uniform = uniform

	// Phase 3+4: optimize the input weights and quantize them onto the
	// hardware lattice.
	var weights []float64
	if spec.Optimize {
		opt, err := s.optimize(ctx, faults, spec.OptimizeOptions, cfg)
		if err != nil {
			return nil, err
		}
		weights = opt.Probs
		if spec.QuantizeGrid > 1 {
			cfg.emit(PhaseQuantize, 1)
			weights = pattern.QuantizeGrid(weights, spec.QuantizeGrid)
		}
		optimized, err := s.planReport(ctx, spec, weights, cfg)
		if err != nil {
			return nil, err
		}
		rep.Optimized = optimized
	}

	// Phase 5: optional self test with the final pattern source.
	if spec.BIST != nil {
		res, err := s.runBIST(ctx, weights, *spec.BIST, cfg)
		if err != nil {
			return nil, err
		}
		rep.BIST = &BISTReport{
			Cycles:        res.Cycles,
			MISRWidth:     res.MISRWidth,
			GoodSignature: res.GoodSignature,
			Detected:      res.Detected,
			Aliased:       res.Aliased,
			Coverage:      res.Coverage(),
		}
	}

	cfg.emit(PhaseSummarize, 1)
	return rep, nil
}

// planReport builds the PlanReport for one pattern source (nil probs =
// uniform): analysis, test length, fault-simulation validation, and
// the estimated-vs-simulated summary.  The uniform plan reads the
// Session's cached estimate; a weighted one prepares its own.
func (s *Session) planReport(ctx context.Context, spec PipelineSpec, probs []float64, cfg runCfg) (*PlanReport, error) {
	var est *estimate
	if probs == nil {
		var err error
		if est, err = s.uniformEstimate(ctx, cfg); err != nil {
			return nil, err
		}
	} else {
		res, err := s.analyze(ctx, probs, cfg)
		if err != nil {
			return nil, err
		}
		faults := s.modelFaults(cfg.model)
		est = newEstimate(s.c, faults, res.DetectProbs(faults))
	}
	detect := est.set.Probs()

	plan := &PlanReport{
		HardestFault: est.name,
		HardestProb:  detect[est.hardest],
	}
	if probs != nil {
		plan.InputProbs = append([]float64(nil), probs...)
	}

	n, err := est.set.RequiredFraction(spec.Fraction, spec.Confidence)
	if err != nil {
		plan.TestLength = -1
		plan.Unreachable = err.Error()
	} else {
		plan.TestLength = n
	}

	// Validation budget: the computed length, bounded so pathological
	// plans (COMP under uniform patterns) stay simulable.
	budget := spec.SimPatterns
	if budget <= 0 {
		budget = spec.MaxSimPatterns
		if plan.TestLength > 0 && plan.TestLength < int64(budget) {
			budget = int(plan.TestLength)
		}
	}
	if cfg.model == FaultModelTransition && budget < 2 {
		// One pattern holds no launch/capture pair: P_SIM would be 0/0.
		return nil, fmt.Errorf("pipeline: %w: a transition run needs at least 2 simulation patterns, got %d", ErrBadSpec, budget)
	}
	plan.ExpectedCoverage = est.set.ExpectedCoverage(int64(budget))
	cfg.emit(PhaseTestLength, 1)

	sim, err := s.simulate(ctx, probs, budget, cfg)
	if err != nil {
		return nil, err
	}
	psim := make([]float64, len(detect))
	for i := range psim {
		psim[i] = sim.PSim(i)
	}
	plan.Simulated = &SimReport{
		Patterns: sim.Applied,
		Coverage: sim.Coverage(),
		Summary:  stats.Summarize(detect, psim),
	}
	return plan, nil
}
