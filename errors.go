package protest

import (
	"context"
	"errors"

	"protest/internal/bdd"
	"protest/internal/core"
	"protest/internal/validate"
)

// Sentinel errors of the public API.  Match them with errors.Is; the
// concrete errors returned by Session methods wrap these with context
// about where they arose.
var (
	// ErrCanceled reports that a Session method was aborted by its
	// context.  The returned error also matches the underlying
	// context.Canceled or context.DeadlineExceeded.
	ErrCanceled = errors.New("protest: canceled")

	// ErrBadProbs flags an input-probability vector that cannot drive
	// an analysis or a pattern generator: wrong length, NaN, or a value
	// outside [0,1].
	ErrBadProbs = core.ErrBadProbs

	// ErrNoFaults reports a circuit whose collapsed fault list is
	// empty, leaving nothing to analyze, optimize, or simulate.
	ErrNoFaults = errors.New("protest: circuit has no faults")

	// ErrBadFaultModel flags an unknown fault model passed to
	// WithFaultModel, PipelineSpec.FaultModel or ValidateSpec.FaultModel
	// (use ParseFaultModel to normalize user input).
	ErrBadFaultModel = errors.New("protest: unknown fault model")

	// ErrNodeBudget is returned by the BDD-exact oracle when a
	// circuit's decision diagrams exceed the node budget (re-exported
	// from the internal bdd package so callers need only this one).
	ErrNodeBudget = bdd.ErrNodeBudget

	// ErrBadSpec flags a ValidateSpec whose explicitly-set values are
	// out of range, the deprecated ValidateSpec.SimWidth set to
	// anything but 0, 1 or 8, a negative BIST Cycles (0 means 1024) or
	// an unsupported BIST MISRWidth of a PipelineSpec, a
	// transition-model run of either spec whose effective pattern
	// budget is below the 2 patterns of one launch/capture pair, a
	// Simulate or SimulateWeighted pattern count below 1, and a
	// negative CoverageCurve checkpoint (re-exported from the internal
	// validate package).
	ErrBadSpec = validate.ErrBadSpec
)

// canceledError couples ErrCanceled with the context error that caused
// it, so errors.Is matches both.
type canceledError struct{ cause error }

func (e *canceledError) Error() string   { return "protest: canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// wrapCanceled converts a context cancellation surfacing from an inner
// loop into ErrCanceled; every other error passes through unchanged.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}
