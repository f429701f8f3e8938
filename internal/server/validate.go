package server

import (
	"net/http"
	"time"

	"protest"
)

// ValidateRequest is the body of POST /v1/validate.
type ValidateRequest struct {
	CircuitRef
	// Spec configures the three-oracle cross-check; the zero value is
	// the documented default run (ε = 0.05, uniform inputs, calibrated
	// envelope).
	Spec protest.ValidateSpec `json:"spec"`
}

// handleValidate runs the statistical self-validation harness on the
// referenced circuit: analytic estimator vs BDD-exact probabilities vs
// a ProbTest-sized Monte-Carlo run.  The full ValidateReport — flags,
// skips and aggregates — is returned as JSON; a run that flags is
// still a 200 (the report is the product; the healthz counters
// aggregate pass/flag/skip outcomes for monitoring).
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req ValidateRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.resolveCircuit(&req.CircuitRef)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	if err := s.adm.admit(ctx); s.fail(w, ctx, err) {
		return
	}
	defer s.adm.release()
	sess, err := s.session(c)
	if s.fail(w, ctx, err) {
		return
	}

	start := time.Now()
	rep, err := sess.Validate(ctx, req.Spec)
	if s.fail(w, ctx, err) {
		return
	}
	s.observeService(time.Since(start))

	s.validateRuns.Add(1)
	if rep.Pass {
		s.validatePassed.Add(1)
	} else {
		s.validateFlaggedRuns.Add(1)
	}
	s.validateFlags.Add(int64(len(rep.Flags)))
	s.validateSkips.Add(int64(len(rep.Skips)))
	s.completed.Add(1)
	s.respond(w, http.StatusOK, rep)
}
