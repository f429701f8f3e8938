package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"protest"
	"protest/internal/artifact"
	"protest/internal/server"
)

// replayer executes requests in-process through the same public calls
// the server's handlers make, producing the exact response bytes a
// handler writes, and records a span around each call into a layer in
// the request's reqTrace.
type replayer struct {
	opts []protest.Option

	// named caches the canonical interned circuit of each registered
	// name, as the server's benchmark cache does; sessions maps
	// canonical circuits to their Session, as the server's registry does.
	mu       sync.Mutex
	named    map[string]*protest.Circuit
	sessions map[*protest.Circuit]*protest.Session
}

// newReplayer opens Sessions the way `protest serve` does with its
// default flags (seed 1, serial, FFR engine, stuck-at default model),
// distributing fault simulation through pool when it is non-nil.
func newReplayer(pool *protest.ShardPool) *replayer {
	opts := []protest.Option{protest.WithSeed(1)}
	if pool != nil {
		opts = append(opts, protest.WithShardPool(pool))
	}
	return &replayer{opts: opts, named: map[string]*protest.Circuit{}, sessions: map[*protest.Circuit]*protest.Session{}}
}

// session resolves and interns the referenced circuit and returns its
// Session, opening it on first use.
func (r *replayer) session(t *reqTrace, ref *server.CircuitRef) (*protest.Circuit, *protest.Session, error) {
	var c *protest.Circuit
	var err error
	t.span("artifact.resolve", func() {
		if ref.Circuit != "" && ref.Netlist == "" {
			r.mu.Lock()
			c = r.named[ref.Circuit]
			r.mu.Unlock()
			if c != nil {
				return
			}
		}
		c, err = resolveRef(ref)
		if err != nil {
			return
		}
		c = artifact.Default.Intern(c)
		if ref.Netlist == "" {
			r.mu.Lock()
			r.named[ref.Circuit] = c
			r.mu.Unlock()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[c]; ok {
		return c, s, nil
	}
	var s *protest.Session
	t.span("artifact.open", func() { s, err = protest.Open(c, r.opts...) })
	if err != nil {
		return nil, nil, err
	}
	r.sessions[c] = s
	return c, s, nil
}

func resolveRef(ref *server.CircuitRef) (*protest.Circuit, error) {
	switch {
	case ref.Circuit != "" && ref.Netlist != "":
		return nil, fmt.Errorf("set either circuit or netlist, not both")
	case ref.Circuit != "":
		c, ok := protest.Benchmark(ref.Circuit)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", ref.Circuit)
		}
		return c, nil
	case ref.Netlist != "":
		name := ref.Name
		if name == "" {
			name = "netlist"
		}
		return protest.ParseNetlistString(ref.Netlist, name)
	}
	return nil, fmt.Errorf("no circuit given")
}

// do replays one request and returns the response body a handler
// would write: the JSON encoding followed by a newline.
func (r *replayer) do(ctx context.Context, t *reqTrace, q request) ([]byte, error) {
	root := t.push("request")
	defer t.pop(root)
	var resp any
	var err error
	switch q.Path {
	case "/v1/analyze":
		resp, err = r.analyze(ctx, t, q.Body)
	case "/v1/pipeline":
		resp, err = r.pipeline(ctx, t, q.Body)
	case "/v1/validate":
		resp, err = r.validate(ctx, t, q.Body)
	default:
		err = fmt.Errorf("no replay for %s", q.Path)
	}
	if err != nil {
		return nil, err
	}
	var body []byte
	t.span("server.encode", func() {
		body, err = json.Marshal(resp)
		body = append(body, '\n')
	})
	t.respBytes = len(body)
	return body, err
}

func decode(t *reqTrace, body []byte, v any) error {
	var err error
	t.span("server.decode", func() { err = json.Unmarshal(body, v) })
	return err
}

func (r *replayer) analyze(ctx context.Context, t *reqTrace, body []byte) (any, error) {
	var req server.AnalyzeRequest
	if err := decode(t, body, &req); err != nil {
		return nil, err
	}
	c, sess, err := r.session(t, &req.CircuitRef)
	if err != nil {
		return nil, err
	}
	model, err := protest.ParseFaultModel(req.FaultModel)
	if err != nil {
		return nil, err
	}
	var probs []float64
	if len(req.InputProbs) > 0 {
		probs = req.InputProbs
	}
	var res *protest.Analysis
	t.span("session.analyze", func() { res, err = sess.Analyze(ctx, probs) })
	if err != nil {
		return nil, err
	}
	var resp server.AnalyzeResponse
	t.span("core.detect", func() {
		// The handler's response assembly.
		faults := artifact.Default.FaultsFor(sess.Circuit(), model)
		detect := res.DetectProbs(faults)
		st := sess.Circuit().Stats()
		resp = server.AnalyzeResponse{Circuit: c.Name, Gates: st.Gates, Inputs: st.Inputs, Outputs: st.Outputs,
			Faults: make([]server.FaultReport, len(faults))}
		hardest := 0
		for i, f := range faults {
			resp.Faults[i] = server.FaultReport{Name: f.Name(sess.Circuit()), DetectProb: detect[i]}
			if detect[i] < detect[hardest] {
				hardest = i
			}
		}
		if len(faults) > 0 {
			resp.HardestFault = resp.Faults[hardest].Name
			resp.HardestProb = detect[hardest]
		}
	})
	return resp, nil
}

func (r *replayer) pipeline(ctx context.Context, t *reqTrace, body []byte) (any, error) {
	var req server.PipelineRequest
	if err := decode(t, body, &req); err != nil {
		return nil, err
	}
	if _, err := req.Spec.Normalize(); err != nil {
		return nil, err
	}
	_, sess, err := r.session(t, &req.CircuitRef)
	if err != nil {
		return nil, err
	}
	spec := req.Spec
	spec.Progress = t.progress
	var rep *protest.Report
	t.call("session.run", func() { rep, err = sess.Run(ctx, spec) })
	if err != nil {
		return nil, err
	}
	t.faultPatterns = rep.Faults * rep.Uniform.Simulated.Patterns
	if rep.Optimized != nil {
		t.faultPatterns += rep.Faults * rep.Optimized.Simulated.Patterns
	}
	if rep.BIST != nil {
		t.bistCycles = rep.BIST.Cycles
	}
	return rep, nil
}

func (r *replayer) validate(ctx context.Context, t *reqTrace, body []byte) (any, error) {
	var req server.ValidateRequest
	if err := decode(t, body, &req); err != nil {
		return nil, err
	}
	_, sess, err := r.session(t, &req.CircuitRef)
	if err != nil {
		return nil, err
	}
	spec := req.Spec
	spec.Progress = t.progress
	var rep *protest.ValidateReport
	t.call("session.validate", func() { rep, err = sess.Validate(ctx, spec) })
	if err != nil {
		return nil, err
	}
	t.faultPatterns = rep.Faults * rep.Patterns
	t.validatePatterns = rep.Patterns
	return rep, nil
}

// span is one traced interval: a call into a layer made while
// replaying request Req.  Parent indexes the enclosing span in the
// same list (-1 for a request's root span); Start and End are
// nanoseconds since the replay began.
type span struct {
	Req    int    `json:"req_id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// reqTrace records the spans of one replayed request.
type reqTrace struct {
	id    int
	epoch time.Time

	mu    sync.Mutex // Progress callbacks may arrive from shard goroutines
	spans []span
	stack []int

	// Phase tracking for the Progress stream of the current call.
	last  int64 // time of the previous progress event (or call start)
	cur   int   // open sequential phase span, -1 when none
	outer int   // open validate phase span, -1 when none

	respBytes        int
	faultPatterns    int
	bistCycles       int
	validatePatterns int
}

func newReqTrace(id int, epoch time.Time) *reqTrace {
	return &reqTrace{id: id, epoch: epoch, cur: -1, outer: -1}
}

func (t *reqTrace) now() int64 { return int64(time.Since(t.epoch)) }

func (t *reqTrace) push(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Req: t.id, Name: name, Parent: parent, Start: t.now()})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *reqTrace) pop(i int) {
	t.spans[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// span runs fn inside a span called name.
func (t *reqTrace) span(name string, fn func()) {
	i := t.push(name)
	fn()
	t.pop(i)
}

// call runs a Session call whose Progress events become phase spans
// under it.
func (t *reqTrace) call(name string, fn func()) {
	i := t.push(name)
	t.last, t.cur, t.outer = t.spans[i].Start, -1, -1
	fn()
	t.mu.Lock()
	t.pop(i)
	t.mu.Unlock()
}

// progress turns the Progress stream into phase spans.  Consecutive
// events of one phase form one span, which runs from the previous
// event to the phase's last event.  The validate phase is reported
// around a whole Session.Validate run, so it encloses the phases
// reported inside it; there a phase whose first event reports fraction
// 0 starts at that event, which leaves the BDD oracle's work before the
// Monte-Carlo run in validate's own time.
func (t *reqTrace) progress(ph protest.Phase, frac float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	parent := t.stack[len(t.stack)-1]
	switch {
	case ph == protest.PhaseValidate:
		if t.outer < 0 {
			t.spans = append(t.spans, span{Req: t.id, Name: string(ph), Parent: parent, Start: now})
			t.outer = len(t.spans) - 1
		}
		t.spans[t.outer].End = now
		t.cur = -1
	case t.cur >= 0 && t.spans[t.cur].Name == string(ph):
		t.spans[t.cur].End = now
	default:
		start := t.last
		if t.outer >= 0 {
			parent = t.outer
			if frac == 0 {
				start = now
			}
		}
		t.spans = append(t.spans, span{Req: t.id, Name: string(ph), Parent: parent, Start: start, End: now})
		t.cur = len(t.spans) - 1
	}
	t.last = now
}
