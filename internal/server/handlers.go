package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"protest"
	"protest/internal/artifact"
)

// CircuitRef selects the circuit a request operates on: a registered
// benchmark name or an inline .bench netlist (exactly one of the two).
type CircuitRef struct {
	// Circuit names a registered benchmark (GET /v1/circuits lists
	// them).
	Circuit string `json:"circuit,omitempty"`
	// Netlist is inline .bench source.  Structurally equal netlists —
	// across requests and clients — resolve to one canonical circuit
	// and one set of compiled artifacts.
	Netlist string `json:"netlist,omitempty"`
	// Name names an inline netlist's design (default "netlist").  The
	// name is part of the circuit identity, so reusing one name for
	// one design maximizes artifact sharing.
	Name string `json:"name,omitempty"`
}

// resolveCircuit builds the referenced circuit and interns it, so the
// returned pointer is the canonical identity the artifact store and
// the coalescing keys use.
// Registered benchmark names additionally cache their canonical
// instance, so warm named requests skip the registry rebuild and the
// structural fingerprint walk entirely.
func (s *Server) resolveCircuit(ref *CircuitRef) (*protest.Circuit, error) {
	if ref.Circuit != "" && ref.Netlist == "" {
		if c, ok := s.benchCache.Load(ref.Circuit); ok {
			return c.(*protest.Circuit), nil
		}
		c, err := ref.resolve()
		if err != nil {
			return nil, err
		}
		ci := artifact.Default.Intern(c)
		s.benchCache.Store(ref.Circuit, ci)
		return ci, nil
	}
	c, err := ref.resolve()
	if err != nil {
		return nil, err
	}
	return artifact.Default.Intern(c), nil
}

// resolve builds the referenced circuit.
func (ref *CircuitRef) resolve() (*protest.Circuit, error) {
	switch {
	case ref.Circuit != "" && ref.Netlist != "":
		return nil, fmt.Errorf("set either circuit or netlist, not both")
	case ref.Circuit != "":
		c, ok := protest.Benchmark(ref.Circuit)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q (GET /v1/circuits lists the registered ones)", ref.Circuit)
		}
		return c, nil
	case ref.Netlist != "":
		name := ref.Name
		if name == "" {
			name = "netlist"
		}
		return protest.ParseNetlistString(ref.Netlist, name)
	default:
		return nil, fmt.Errorf("no circuit given: set circuit or netlist")
	}
}

// PipelineRequest is the body of POST /v1/pipeline and POST /v1/jobs.
type PipelineRequest struct {
	CircuitRef
	// Spec configures the run; the zero value is the paper's default
	// pipeline (uniform analysis, test length, simulated validation).
	Spec protest.PipelineSpec `json:"spec"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	CircuitRef
	// InputProbs are per-input signal probabilities; empty means the
	// conventional uniform tuple p = 0.5.
	InputProbs []float64 `json:"input_probs,omitempty"`
	// FaultModel selects the fault universe the response reports
	// detection probabilities for ("stuck-at", "bridging",
	// "transition"); empty means stuck-at.  The analysis pass itself is
	// model-independent, so requests differing only here still share
	// one evaluator pass.
	FaultModel string `json:"fault_model,omitempty"`
}

// FaultReport is one fault row of an AnalyzeResponse.
type FaultReport struct {
	Name       string  `json:"name"`
	DetectProb float64 `json:"detect_prob"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Circuit      string        `json:"circuit"`
	Gates        int           `json:"gates"`
	Inputs       int           `json:"inputs"`
	Outputs      int           `json:"outputs"`
	Faults       []FaultReport `json:"faults"`
	HardestFault string        `json:"hardest_fault"`
	HardestProb  float64       `json:"hardest_prob"`
}

// errorResponse is the JSON error envelope of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// respond writes v as the JSON body of a status response.  It encodes
// before writing the status, so a value that fails to encode (a NaN,
// say) answers 500 with the error envelope instead of a 200 with an
// empty body.
func (s *Server) respond(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "server: encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Write errors at this point mean the client is gone; there is
	// nobody left to report them to.
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) error(w http.ResponseWriter, status int, err error) {
	s.respond(w, status, errorResponse{Error: err.Error()})
}

// reject429 answers one over-capacity request, with the Retry-After
// estimate derived from current queue depth and recent service times.
func (s *Server) reject429(w http.ResponseWriter, err error) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
	s.error(w, http.StatusTooManyRequests, err)
}

// decode reads a bounded JSON body into v.  A field v does not have is
// refused, so a misspelled or retired field answers 400 with its name
// instead of silently taking its default.  A body over the limit is a
// distinct client mistake and gets the distinct answer: 413 with the
// limit spelled out, not a generic 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.error(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.error(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// wantSSE reports whether the request asked for a server-sent event
// stream (progress + report) instead of one JSON document.
func wantSSE(r *http.Request) bool {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return true
	}
	switch r.URL.Query().Get("stream") {
	case "sse", "1", "true":
		return true
	}
	return false
}

// fail answers a computation's error and reports whether there was
// one.  A request whose client went away is counted canceled and gets
// no body, an admission overflow gets the 429, and any other error its
// statusFor status.
func (s *Server) fail(w http.ResponseWriter, ctx context.Context, err error) bool {
	switch {
	case err == nil:
		return false
	case ctx.Err() != nil || errors.Is(err, protest.ErrCanceled):
		s.canceled.Add(1)
	case errors.Is(err, errBusy):
		s.reject429(w, err)
	default:
		s.failed.Add(1)
		s.error(w, statusFor(err), err)
	}
	return true
}

// statusFor maps an analysis error to an HTTP status: caller mistakes
// (bad probabilities, empty fault lists, spec validation) are 400s,
// anything else is a 500.
func statusFor(err error) int {
	if errors.Is(err, protest.ErrBadProbs) || errors.Is(err, protest.ErrNoFaults) ||
		errors.Is(err, protest.ErrBadSpec) || errors.Is(err, protest.ErrBadFaultModel) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// progressUpdate is the (phase, fraction) payload fanned out to every
// joiner of a coalesced pipeline computation.
type progressUpdate struct {
	Phase protest.Phase
	Frac  float64
}

// pipelineKey identifies one coalescable pipeline computation: the
// canonical interned circuit plus the canonicalized spec rendering.
type pipelineKey struct {
	c    *protest.Circuit
	spec string
}

// pipelineSpecKey canonicalizes a spec for coalescing: Normalize
// applies the documented zero-value defaults, so a spec relying on a
// default and one spelling it out produce the same key.  Every wire
// field is part of the key.
func pipelineSpecKey(spec protest.PipelineSpec) (string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// runPipeline executes one pipeline computation for (c, spec), joining
// an identical in-flight computation when one exists.  The leader of a
// computation passes admission control when admit is set (async job
// workers pass false — their pool is their admission); joiners never
// consume admission slots, which is what lets N identical requests
// cost one slot and one computation.  onProgress receives the shared
// progress stream of whichever computation this request attached to.
//
// The computation runs under a merged context and is canceled only
// when every attached request and job has gone away; err is ctx.Err()
// when this caller's own context ended first.
func (s *Server) runPipeline(ctx context.Context, c *protest.Circuit, spec protest.PipelineSpec, specKey string, admit bool, onProgress func(progressUpdate)) (*protest.Report, error, bool) {
	run := func(runCtx context.Context, emit func(progressUpdate)) (rep *protest.Report, err error) {
		// Coalesced computations run on the group's own goroutine, out
		// of reach of the HTTP middleware's recover; convert a panicking
		// pipeline into an error every joiner sees.
		defer s.recoverToError(&err)
		if admit {
			if err := s.adm.admit(runCtx); err != nil {
				return nil, err
			}
			defer s.adm.release()
		}
		sess, err := protest.Open(c, s.opts...)
		if err != nil {
			return nil, err
		}
		if s.testHookAdmitted != nil {
			s.testHookAdmitted()
		}
		runSpec := spec
		runSpec.Progress = func(ph protest.Phase, frac float64) {
			emit(progressUpdate{Phase: ph, Frac: frac})
		}
		start := time.Now()
		rep, err = sess.Run(runCtx, runSpec)
		if err == nil {
			s.observeService(time.Since(start))
		}
		return rep, err
	}
	return s.pipelines.Do(ctx, pipelineKey{c: c, spec: specKey}, onProgress, run)
}

// decodePipeline reads a /v1/pipeline or /v1/jobs body and checks it
// before any work starts: it canonicalizes the spec into its
// coalescing key first, which costs nothing, then resolves the
// circuit, whose inline netlist may need compiling.  When a step
// fails, the request has been answered (400, or 413 for a body over
// the limit) and ok is false.
func (s *Server) decodePipeline(w http.ResponseWriter, r *http.Request) (c *protest.Circuit, spec protest.PipelineSpec, specKey string, ok bool) {
	var req PipelineRequest
	if !s.decode(w, r, &req) {
		return nil, spec, "", false
	}
	specKey, err := pipelineSpecKey(req.Spec)
	if err == nil {
		c, err = s.resolveCircuit(&req.CircuitRef)
	}
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return nil, spec, "", false
	}
	return c, req.Spec, specKey, true
}

func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	c, spec, specKey, ok := s.decodePipeline(w, r)
	if !ok {
		return
	}

	ctx := r.Context()
	if wantSSE(r) {
		stream, ok := newSSEStream(w)
		if !ok {
			s.failed.Add(1)
			s.error(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
			return
		}
		stopPing := stream.keepAlive(s.cfg.SSEKeepAlive)
		defer stopPing()
		rep, err, _ := s.runPipeline(ctx, c, spec, specKey, true, func(p progressUpdate) {
			stream.progress(p.Phase, p.Frac)
		})
		switch {
		case err != nil && (ctx.Err() != nil || errors.Is(err, protest.ErrCanceled)):
			// Client disconnect mid-run: this request detached; the
			// computation goes on while anyone else still wants it.
			s.canceled.Add(1)
		case errors.Is(err, errBusy):
			s.rejected.Add(1)
			stream.event("error", errorResponse{Error: err.Error()})
		case err != nil:
			s.failed.Add(1)
			stream.event("error", errorResponse{Error: err.Error()})
		default:
			s.completed.Add(1)
			stream.event("report", rep)
		}
		return
	}

	rep, err, _ := s.runPipeline(ctx, c, spec, specKey, true, nil)
	if s.fail(w, ctx, err) {
		return
	}
	s.completed.Add(1)
	s.respond(w, http.StatusOK, rep)
}

// analyzeKey identifies one coalescable analysis pass: the canonical
// interned circuit and the input tuple's bits.  The fault model is not
// part of it, because the pass does not depend on it.
type analyzeKey struct {
	c     *protest.Circuit
	tuple string
}

// tupleKey renders a probability tuple for the analyze key.  strconv's
// shortest form round-trips float64 exactly, so two tuples share a key
// iff they are bit-equal element-wise.
func tupleKey(probs []float64) string {
	if probs == nil {
		return "uniform"
	}
	var b strings.Builder
	for _, p := range probs {
		b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
		b.WriteByte(',')
	}
	return b.String()
}

// analyze runs one analysis pass of c under probs (nil = uniform),
// joining an identical in-flight pass when one exists.  The leader
// passes admission, opens a Session and runs the pass under the
// group's merged context, which is canceled only when every attached
// request has gone away; joiners consume no admission slot, and share
// the leader's Analysis read-only.  err is ctx.Err() when this
// caller's own context ended first.
func (s *Server) analyze(ctx context.Context, c *protest.Circuit, probs []float64) (*protest.Analysis, error) {
	res, err, _ := s.analyses.Do(ctx, analyzeKey{c: c, tuple: tupleKey(probs)}, nil,
		func(runCtx context.Context, _ func(struct{})) (res *protest.Analysis, err error) {
			// Like a coalesced pipeline, the pass runs on the group's
			// goroutine, out of reach of the HTTP middleware's recover.
			defer s.recoverToError(&err)
			if err := s.adm.admit(runCtx); err != nil {
				return nil, err
			}
			defer s.adm.release()
			sess, err := protest.Open(c, s.opts...)
			if err != nil {
				return nil, err
			}
			if s.testHookAdmitted != nil {
				s.testHookAdmitted()
			}
			start := time.Now()
			res, err = sess.Analyze(runCtx, probs)
			s.analyzePasses.Add(1)
			if err == nil {
				s.observeService(time.Since(start))
			}
			return res, err
		})
	return res, err
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	c, err := s.resolveCircuit(&req.CircuitRef)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	model, err := protest.ParseFaultModel(req.FaultModel)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	var probs []float64
	if len(req.InputProbs) > 0 {
		probs = req.InputProbs
	}

	ctx := r.Context()
	res, err := s.analyze(ctx, c, probs)
	if s.fail(w, ctx, err) {
		return
	}

	sc := res.C // the Session's circuit
	faults := artifact.Default.FaultsFor(sc, model)
	detect := res.DetectProbs(faults)
	resp := AnalyzeResponse{
		Circuit: c.Name,
		Gates:   sc.NumGates(),
		Inputs:  len(sc.Inputs),
		Outputs: len(sc.Outputs),
		Faults:  make([]FaultReport, len(faults)),
	}
	hardest := 0
	for i, f := range faults {
		resp.Faults[i] = FaultReport{Name: f.Name(sc), DetectProb: detect[i]}
		if detect[i] < detect[hardest] {
			hardest = i
		}
	}
	// A non-default universe can be empty (e.g. bridging on a circuit
	// with single-node levels); report no hardest fault rather than
	// indexing into nothing.
	if len(faults) > 0 {
		resp.HardestFault = resp.Faults[hardest].Name
		resp.HardestProb = detect[hardest]
	}
	s.completed.Add(1)
	s.respond(w, http.StatusOK, resp)
}
