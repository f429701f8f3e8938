package protest

import (
	"context"
	"fmt"

	"protest/internal/core"
	"protest/internal/faultsim"
	"protest/internal/validate"
)

// PhaseValidate is the phase reported around a Session.Validate run;
// the embedded Monte-Carlo measurement additionally reports
// PhaseSimulate progress.
const PhaseValidate Phase = "validate"

// ValidateReport is the serializable outcome of one Session.Validate
// run: the three oracle summaries, the ProbTest-sized pattern count,
// every flagged fault and every skipped check with its reason.
type ValidateReport = validate.Report

// ValidateFlag is one cross-check failure inside a ValidateReport.
type ValidateFlag = validate.Flag

// ValidateSkip records a validation check that could not run and why.
type ValidateSkip = validate.Skip

// ValidateEnvelope is the aggregate acceptance band the analytic
// estimator is held to (see Session.Validate).
type ValidateEnvelope = validate.Envelope

// ValidateSpec configures one Session.Validate run.  The zero value
// selects the documented defaults: ε = 0.05, outcome-probability
// floor 10⁻⁴, at least 16384 and at most 2²⁰ Monte-Carlo patterns,
// the default BDD node budget of 2²⁰, gross per-fault tolerance 0.5,
// uniform inputs, and the calibrated (or default) aggregate envelope.
type ValidateSpec struct {
	// Epsilon is the family-wise error rate of the run, in (0,1)
	// (default 0.05): per-fault statistical checks are Bonferroni-
	// adjusted to it, and the Monte-Carlo pattern count is sized
	// ProbTest-style so every fault above PMinFloor is observed at
	// least once with probability at least 1-ε.
	Epsilon float64 `json:"epsilon,omitempty"`
	// PMinFloor is the smallest outcome probability the coverage
	// guarantee extends to (default 1e-4).
	PMinFloor float64 `json:"pmin_floor,omitempty"`
	// MinPatterns/MaxPatterns clamp the derived Monte-Carlo pattern
	// count (defaults 16384 / 1<<20); a truncated guarantee is
	// reported, never silently weakened.
	MinPatterns int `json:"min_patterns,omitempty"`
	MaxPatterns int `json:"max_patterns,omitempty"`
	// BDDBudget bounds the exact oracle's diagram size (default
	// 1<<20); circuits over budget are skipped with a recorded reason.
	BDDBudget int `json:"bdd_budget,omitempty"`
	// GrossTol is the loose per-fault tolerance on the heuristic
	// analytic chain (default 0.5).
	GrossTol float64 `json:"gross_tol,omitempty"`
	// Envelope overrides the aggregate acceptance band; nil selects
	// the calibrated registry band (uniform inputs) or the
	// conservative default.
	Envelope *ValidateEnvelope `json:"envelope,omitempty"`
	// InputProbs are the per-input signal probabilities all three
	// oracles run under; nil means the conventional uniform tuple.
	InputProbs []float64 `json:"input_probs,omitempty"`
	// SimWidth has no effect.  The Monte-Carlo measurement runs on the
	// Session's engine and worker count at the one measurement width,
	// and a Session opened WithShardPool shards it across the pool's
	// workers.
	//
	// Deprecated: SimWidth once forced the measurement's simulation
	// width, which never changed a result.  It remains on the struct
	// and on the wire so that clients that still send it get the
	// answers they always got: 0, 1 and 8 are accepted and ignored,
	// and any other value fails Validate with ErrBadSpec.
	SimWidth int `json:"sim_width,omitempty"`
	// FaultModel overrides the Session's fault model for this run, with
	// PipelineSpec.FaultModel semantics: all three oracles validate the
	// selected universe.  The empty value keeps the Session default.
	FaultModel FaultModel `json:"fault_model,omitempty"`
	// Progress overrides the Session's WithProgress callback for this
	// run only.
	Progress func(Phase, float64) `json:"-"`

	// perturb, when non-nil, biases a copy of the analytic detection
	// probabilities before the checks run.  It is unexported on
	// purpose: the hook exists only so tests can prove the harness
	// catches an injected analytic regression, and keeping it out of
	// the public (and wire) surface means no caller can accidentally
	// validate perturbed values.
	perturb func([]float64)
}

// Validate reports whether the spec's explicitly set fields are inside
// their documented ranges — the deprecated SimWidth, the fault model
// and the harness settings — without running anything.
// Session.Validate performs the same checks before any phase runs, so
// Validate is only needed to reject a bad spec early, e.g. at a
// service boundary before the request is admitted and queued.  A
// transition run whose pattern budget holds no launch/capture pair is
// refused by Session.Validate only, because the Session may supply the
// fault model.
func (spec ValidateSpec) Validate() error {
	switch spec.SimWidth {
	case 0, 1, 8:
	default:
		return fmt.Errorf("validate: %w: widesim: unsupported width %d (want 0, 1 or 8)", ErrBadSpec, spec.SimWidth)
	}
	if !spec.FaultModel.Valid() {
		return fmt.Errorf("validate: %w: %q", ErrBadFaultModel, string(spec.FaultModel))
	}
	return spec.harness().Validate()
}

// harness returns the settings of the harness run.
func (spec ValidateSpec) harness() validate.Spec {
	return validate.Spec{
		Epsilon:     spec.Epsilon,
		PMinFloor:   spec.PMinFloor,
		MinPatterns: spec.MinPatterns,
		MaxPatterns: spec.MaxPatterns,
		BDDBudget:   spec.BDDBudget,
		GrossTol:    spec.GrossTol,
		Envelope:    spec.Envelope,
	}
}

// Validate cross-checks the Session's three detection-probability
// oracles against each other — the analytic estimator, exact BDD
// probabilities, and a ProbTest-sized Monte-Carlo measurement — and
// reports every disagreement as a flag (see ValidateReport).  It is
// the "who watches the watchers" harness: a passing report means the
// estimator, the BDD engine and the fault simulator independently
// agree within the statistical resolution ε buys.
//
// Like every Session method it runs lock-free on the shared compiled
// artifacts and is safe for concurrent use; the Monte-Carlo
// measurement routes through the Session's configured engine, worker
// count and shard pool (sharded across worker processes when the
// Session was opened WithShardPool), and the fixed Session seed makes
// the whole report deterministic.  Oracle disagreement is reported in
// the Flags of the report, not as an error; the error return is for
// infrastructure failure (bad spec, cancellation, simulator error)
// only.  A spec that fails ValidateSpec.Validate is refused before any
// phase runs.
func (s *Session) Validate(ctx context.Context, spec ValidateSpec) (*ValidateReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := s.cfg().with(spec.FaultModel, spec.Progress)
	faults := s.modelFaults(cfg.model)
	if len(faults) == 0 {
		return nil, fmt.Errorf("validate: %s model: %w", cfg.model, ErrNoFaults)
	}

	cfg.emit(PhaseValidate, 0)
	// Oracle 1: the analytic estimator.  The uniform vector is the
	// store's test-length set, shared: validate.Run perturbs a copy.
	var analytic []float64
	inputProbs := spec.InputProbs
	if inputProbs == nil {
		tl, err := s.uniformTestLen(ctx, cfg)
		if err != nil {
			return nil, err
		}
		analytic = tl.Set.Probs()
		inputProbs = core.UniformProbs(s.c)
	} else {
		res, err := s.analyze(ctx, inputProbs, cfg)
		if err != nil {
			return nil, err
		}
		analytic = res.DetectProbs(faults)
	}

	vcfg := validate.Config{Spec: spec.harness(), Perturb: spec.perturb}
	sim := func(ctx context.Context, numPatterns int) (*faultsim.Result, error) {
		return s.simulate(ctx, spec.InputProbs, numPatterns, cfg)
	}
	rep, err := validate.Run(ctx, s.c, faults, analytic, inputProbs, sim, vcfg)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	cfg.emit(PhaseValidate, 1)
	return rep, nil
}
