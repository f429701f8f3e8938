// Package core implements PROTEST's probabilistic testability analysis:
// estimation of signal probabilities with reconvergent-fanout correction
// via joining points (section 2 of the paper), observability estimation
// through the signal-flow model (section 3), and per-fault detection
// probabilities for the single stuck-at model.
//
// The estimation works with nearly linear effort, as the exact problem
// is NP-hard [Wu84].  Accuracy is controlled by the two parameters the
// paper names MAXVERS (how many joining points are conditioned per
// gate) and MAXLIST (how far joining points are searched).
//
// # Program / Evaluator split
//
// The package separates the analysis into two tiers:
//
//   - Program is the immutable compiled artifact of one (circuit,
//     params) pair: the conditioning plan (cones and joining points),
//     the compiled conditional-propagation programs, and the
//     incremental-update regions.  A Program is safe for unlimited
//     concurrent use and is meant to be shared — by optimizer workers,
//     by concurrent Sessions, and through the artifact store.
//   - Evaluator holds every piece of mutable per-run scratch.  An
//     Evaluator is NOT safe for concurrent use; acquire one per
//     goroutine from the Program's pool (Acquire/Release) or build a
//     private one with NewEvaluator.
//
// Program.Run is the concurrency-safe convenience entry: it acquires
// a pooled Evaluator, runs, and releases it.  Every evaluation path —
// pooled, fresh, cloned, serial or parallel — is bit-identical: the
// plan is static and the per-node kernels are deterministic, so
// results depend only on the input tuple.
//
// # Repeated evaluation
//
// The input-probability optimizer evaluates thousands of closely
// related tuples, so an Evaluator offers three tiers of evaluation
// cost:
//
//   - Run: a full analysis allocating a fresh Analysis;
//   - RunInto: a full analysis into caller-owned buffers (NewAnalysis),
//     zero allocations in the steady state;
//   - Update: an incremental re-analysis after a few inputs changed,
//     re-evaluating only the statically precomputed signal and
//     observability regions those inputs can reach — bit-identical to
//     a full run (the conditioning plan is static, so cone-bounded
//     recomputation is exact; see incremental.go for the argument and
//     for when the full-pass fallback triggers).
//
// Analysis.CopyFrom checkpoints a state so a speculative Update can be
// discarded.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
)

// ErrBadProbs flags an input-probability vector that cannot drive an
// analysis: wrong length, NaN, or a value outside [0,1].
var ErrBadProbs = errors.New("bad input probabilities")

// ObsModel selects how fan-out branch observabilities combine into the
// stem observability s(x).
type ObsModel int

const (
	// ObsXorTree folds branch observabilities with t ⊞ y = t+y-2ty,
	// the paper's default model (odd number of sensitized paths).
	// Note the model's known artifact, the source of the systematic
	// under-estimation the paper reports: branches whose effects reach
	// *different* outputs are still treated as potentially cancelling,
	// so two branches with observability ≈1 combine to ≈0 even though
	// disjoint observation paths cannot cancel physically.
	ObsXorTree ObsModel = iota
	// ObsOr uses s(x) = 1 - Π(1-s(x_i)), the paper's alternative model
	// for circuits with a large number of primary outputs.  It never
	// under-estimates a stem below its best branch and therefore never
	// produces the spurious zeros ObsXorTree can.
	ObsOr
)

// Params tunes the estimation effort.
type Params struct {
	// MaxVers is the maximal number of joining points conditioned per
	// gate (the cardinality bound on W ⊆ V).  0 disables reconvergence
	// correction entirely (pure independence model).
	MaxVers int
	// MaxList bounds the path length along which joining points are
	// searched (depth of the per-pin fanin cones).
	MaxList int
	// MaxCandidates bounds how many joining-point candidates are scored
	// per gate; the closest candidates (BFS order) are preferred.
	MaxCandidates int
	// MaxConeSize bounds the size of the per-gate conditioning cone.
	MaxConeSize int
	// ObsModel selects the stem-combination model.
	ObsModel ObsModel
	// PaperLocalDiff uses the paper's ⊞-cofactor approximation
	// f(..0..) ⊞ f(..1..) for pin sensitization instead of the exact
	// boolean-difference probability.
	PaperLocalDiff bool
}

// DefaultParams returns the setting used for the experiments in this
// repository: MAXVERS=4, MAXLIST=8.
func DefaultParams() Params {
	return Params{
		MaxVers:       4,
		MaxList:       8,
		MaxCandidates: 12,
		MaxConeSize:   192,
		ObsModel:      ObsXorTree,
	}
}

// FastParams is a cheaper setting for inner optimization loops.
func FastParams() Params {
	return Params{
		MaxVers:       2,
		MaxList:       4,
		MaxCandidates: 6,
		MaxConeSize:   64,
		ObsModel:      ObsXorTree,
	}
}

func (p Params) validate() error {
	if p.MaxVers < 0 || p.MaxVers > 16 {
		return fmt.Errorf("core: MaxVers %d out of range [0,16]", p.MaxVers)
	}
	if p.MaxList < 0 {
		return fmt.Errorf("core: MaxList %d negative", p.MaxList)
	}
	if p.MaxCandidates < p.MaxVers {
		return fmt.Errorf("core: MaxCandidates %d < MaxVers %d", p.MaxCandidates, p.MaxVers)
	}
	return nil
}

// Analysis holds the result of one probabilistic analysis run.
type Analysis struct {
	C          *circuit.Circuit
	Params     Params
	InputProbs []float64 // per primary input, by input position
	// Prob is the estimated signal probability of every node.
	Prob []float64
	// Obs is the estimated observability s(x) of every node output.
	Obs []float64
	// PinObs[g][i] is the estimated observability of gate g's input pin
	// i; nil for primary inputs.
	PinObs [][]float64
}

// Program is the immutable compiled analysis artifact of one (circuit,
// params) pair: the static conditioning plan for every gate, the
// compiled conditional-propagation programs, and (lazily, behind a
// sync.Once) the incremental-update regions.  Building it is the
// expensive step; once built it is strictly read-only and safe to
// share between any number of goroutines and Sessions.
//
// Evaluation happens through Evaluators, which carry all mutable
// scratch.  Acquire pools them so repeated concurrent calls reuse
// warmed-up scratch (including the per-evaluator compiled-assignment
// caches) instead of reallocating.
type Program struct {
	c      *circuit.Circuit
	params Params
	plans  []gatePlan
	incr   *incremental // lazily built incremental-update plan

	pool sync.Pool // *Evaluator
}

// NewProgram compiles the analysis plan for the circuit under the
// given parameters.
func NewProgram(c *circuit.Circuit, params Params) (*Program, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	p := &Program{
		c:      c,
		params: params,
		incr:   &incremental{},
	}
	p.buildPlans()
	p.pool.New = func() any { return p.NewEvaluator() }
	return p, nil
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *circuit.Circuit { return p.c }

// Params returns the parameters the program was compiled under.
func (p *Program) Params() Params { return p.params }

// NewEvaluator allocates a fresh evaluator over this program, outside
// the pool.  Prefer Acquire/Release unless the evaluator's lifetime is
// managed explicitly (e.g. long-lived per-worker evaluators).
func (p *Program) NewEvaluator() *Evaluator {
	e := &Evaluator{Program: p, c: p.c, params: p.params, plans: p.plans}
	e.initScratch()
	return e
}

// Acquire returns a pooled evaluator.  The caller owns it until
// Release; evaluators must not be shared between goroutines.
func (p *Program) Acquire() *Evaluator {
	return p.pool.Get().(*Evaluator)
}

// Run estimates signal probabilities and observabilities for one input
// tuple on a pooled evaluator, aborting with ctx.Err() as Evaluator.Run
// does.  Safe for concurrent use: each call acquires its own pooled
// evaluator and releases it before returning.
func (p *Program) Run(ctx context.Context, inputProbs []float64) (*Analysis, error) {
	e := p.Acquire()
	defer e.Release()
	return e.Run(ctx, inputProbs)
}

// NewAnalysis allocates an Analysis shaped for this program's circuit
// (including the per-gate PinObs rows), for use with RunInto and
// Update.  Allocating the result once and reusing it keeps repeated
// evaluation — the optimizer's inner loop — allocation free.
func (p *Program) NewAnalysis() *Analysis {
	c := p.c
	res := &Analysis{
		C:          c,
		Params:     p.params,
		InputProbs: make([]float64, len(c.Inputs)),
		Prob:       make([]float64, c.NumNodes()),
		Obs:        make([]float64, c.NumNodes()),
		PinObs:     make([][]float64, c.NumNodes()),
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.IsInput {
			res.PinObs[i] = make([]float64, len(n.Fanin))
		}
	}
	return res
}

// validateProbs rejects tuples of the wrong length or with entries
// outside [0,1].
func (p *Program) validateProbs(inputProbs []float64) error {
	if len(inputProbs) != len(p.c.Inputs) {
		return fmt.Errorf("core: %w: %d input probabilities for %d inputs", ErrBadProbs, len(inputProbs), len(p.c.Inputs))
	}
	for i, pr := range inputProbs {
		if pr < 0 || pr > 1 || math.IsNaN(pr) {
			return fmt.Errorf("core: %w: input %d probability %v out of [0,1]", ErrBadProbs, i, pr)
		}
	}
	return nil
}

// checkShape verifies that res belongs to this program's circuit and
// parameter set (an Analysis from another program would mix estimates
// computed under different plans).
func (p *Program) checkShape(res *Analysis) error {
	if res.C != p.c || res.Params != p.params ||
		len(res.Prob) != p.c.NumNodes() || len(res.Obs) != p.c.NumNodes() ||
		len(res.PinObs) != p.c.NumNodes() || len(res.InputProbs) != len(p.c.Inputs) {
		return fmt.Errorf("core: analysis does not belong to this program (use NewAnalysis)")
	}
	return nil
}

// Evaluator runs analyses over a shared immutable Program.  It owns
// every piece of mutable per-run scratch and is therefore NOT safe for
// concurrent use; each goroutine needs its own, normally from the
// program pool (Program.Acquire / Evaluator.Release).
type Evaluator struct {
	*Program

	// Hot immutable fields mirrored from the Program so the per-gate
	// loops dereference one pointer, not two.  They alias the program's
	// values exactly and are never written after construction.
	c      *circuit.Circuit
	params Params
	plans  []gatePlan

	// scratch for conditional propagation
	val []float64
	gen []uint32
	cur uint32

	// compiled-propagation state: val0 is the second rail of the fused
	// candidate scoring (val carries rail 1), merged caches the lazily
	// compiled assignment programs (per Evaluator — each compiles its
	// own, keeping the cache lock-free), and noCompile forces the
	// generic interpreter (the in-package oracle the compiled paths are
	// property-tested against).
	val0      []float64
	merged    []map[uint64]*condProg
	noCompile bool

	// scratch hoisted out of the per-gate evaluation so that steady
	// state analysis performs zero allocations (sized to the circuit's
	// maximal fanin / fanout / candidate counts at construction).
	candHi     [][]float64        // per-candidate conditional pin probabilities (rail 1)
	candLo     [][]float64        // per-candidate conditional pin probabilities (rail 0)
	condIn     []float64          // conditional pin probabilities
	condBuf    []float64          // conditional-propagation wide-gate fallback
	condBuf0   []float64          // rail-0 twin of condBuf
	cvals      []float64          // canonical-order pinned values
	canonPos   []int              // score-order -> canonical-slot map
	inProbs    []float64          // independent-case pin probabilities
	diffBuf    []float64          // PaperLocalDiff cofactor scratch
	onePin     []circuit.NodeID   // single-candidate pin list
	oneVal     []float64          // single-candidate value list
	pins       []circuit.NodeID   // selected joining points W
	vals       []float64          // assignment A_v scratch
	cands      []scoredCandidate  // candidate scoring scratch
	reachMerge []circuit.NodeID   // merged reach of the selected joining points
	mergeIdx   []int              // k-way merge cursor scratch
	branches   []float64          // fanout-branch observabilities
	faninProbs []float64          // fanin probabilities for localDiff
	sigMerge   []circuit.NodeID   // merged dirty signal region
	obsMerge   []circuit.NodeID   // merged dirty observability region
	mergeLists [][]circuit.NodeID // per-input region list scratch
	changedBuf []int              // normalized changed-input list
}

// Release returns the evaluator to its program's pool.  The caller
// must not use it afterwards.
func (e *Evaluator) Release() {
	e.Program.pool.Put(e)
}

type scoredCandidate struct {
	x     circuit.NodeID
	ci    int // index into the plan's candidates/reach lists
	score float64
}

// initScratch sizes the per-run scratch buffers to the circuit.
func (e *Evaluator) initScratch() {
	c := e.c
	maxFanin, maxBranches, maxCone := 1, 1, 1
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if len(n.Fanin) > maxFanin {
			maxFanin = len(n.Fanin)
		}
		// One branch per fanout entry plus the primary-output branch.
		if b := len(n.Fanout) + 1; b > maxBranches {
			maxBranches = b
		}
	}
	for i := range e.plans {
		if len(e.plans[i].cone) > maxCone {
			maxCone = len(e.plans[i].cone)
		}
	}
	e.val = make([]float64, c.NumNodes())
	e.val0 = make([]float64, c.NumNodes())
	e.gen = make([]uint32, c.NumNodes())
	e.candHi = make([][]float64, e.params.MaxCandidates)
	e.candLo = make([][]float64, e.params.MaxCandidates)
	for i := 0; i < e.params.MaxCandidates; i++ {
		e.candHi[i] = make([]float64, maxFanin)
		e.candLo[i] = make([]float64, maxFanin)
	}
	e.condIn = make([]float64, maxFanin)
	e.condBuf = make([]float64, 0, maxFanin)
	e.condBuf0 = make([]float64, 0, maxFanin)
	e.cvals = make([]float64, e.params.MaxVers)
	e.canonPos = make([]int, e.params.MaxVers)
	e.inProbs = make([]float64, 0, maxFanin)
	e.diffBuf = make([]float64, maxFanin)
	e.onePin = make([]circuit.NodeID, 1)
	e.oneVal = make([]float64, 1)
	e.pins = make([]circuit.NodeID, 0, e.params.MaxVers)
	e.vals = make([]float64, 0, e.params.MaxVers)
	e.cands = make([]scoredCandidate, 0, e.params.MaxCandidates+1)
	e.reachMerge = make([]circuit.NodeID, 0, maxCone)
	// The k-way merge scratch serves both the reach union (up to
	// MaxVers lists) and the dirty-region union (up to
	// maxIncrementalChanged lists).
	maxMerge := e.params.MaxVers
	if maxMerge < maxIncrementalChanged {
		maxMerge = maxIncrementalChanged
	}
	e.mergeIdx = make([]int, maxMerge)
	e.mergeLists = make([][]circuit.NodeID, 0, maxMerge)
	e.branches = make([]float64, 0, maxBranches)
	e.faninProbs = make([]float64, 0, maxFanin)
	e.sigMerge = make([]circuit.NodeID, 0, c.NumNodes())
	e.obsMerge = make([]circuit.NodeID, 0, c.NumNodes())
	e.changedBuf = make([]int, 0, maxIncrementalChanged+1)
}

// Run estimates signal probabilities and observabilities for the given
// per-input signal probabilities.  It aborts with ctx.Err() before the
// signal pass and between the signal and observability passes.
func (e *Evaluator) Run(ctx context.Context, inputProbs []float64) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.validateProbs(inputProbs); err != nil {
		return nil, err
	}
	res := e.NewAnalysis()
	copy(res.InputProbs, inputProbs)
	e.signalPass(res)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.observePass(res)
	return res, nil
}

// RunInto is Run writing into a caller-owned Analysis (from
// NewAnalysis or a previous Run), reusing its buffers: the steady
// state performs zero allocations.  The result is bit-identical to
// Run with the same probabilities.
func (e *Evaluator) RunInto(res *Analysis, inputProbs []float64) error {
	if err := e.checkShape(res); err != nil {
		return err
	}
	if err := e.validateProbs(inputProbs); err != nil {
		return err
	}
	copy(res.InputProbs, inputProbs)
	e.signalPass(res)
	e.observePass(res)
	return nil
}

// Clone deep-copies the analysis, detaching every mutable slice, so
// the original can be cached or shared read-only while the caller
// mutates the copy.
func (r *Analysis) Clone() *Analysis {
	cp := *r
	cp.InputProbs = append([]float64(nil), r.InputProbs...)
	cp.Prob = append([]float64(nil), r.Prob...)
	cp.Obs = append([]float64(nil), r.Obs...)
	cp.PinObs = make([][]float64, len(r.PinObs))
	for i, pins := range r.PinObs {
		if pins != nil {
			cp.PinObs[i] = append([]float64(nil), pins...)
		}
	}
	return &cp
}

// CopyFrom copies the analysis values of src into r, reusing r's
// storage.  Both must be shaped for the same circuit (NewAnalysis of
// the same program); no allocation is performed.
func (r *Analysis) CopyFrom(src *Analysis) {
	r.C = src.C
	r.Params = src.Params
	copy(r.InputProbs, src.InputProbs)
	copy(r.Prob, src.Prob)
	copy(r.Obs, src.Obs)
	for i, pins := range src.PinObs {
		copy(r.PinObs[i], pins)
	}
}

// Analyze is the one-shot convenience form of NewProgram + Run.
func Analyze(c *circuit.Circuit, inputProbs []float64, params Params) (*Analysis, error) {
	p, err := NewProgram(c, params)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background(), inputProbs)
}

// UniformProbs returns the conventional tuple p_i = 0.5 for every input.
func UniformProbs(c *circuit.Circuit) []float64 {
	ps := make([]float64, len(c.Inputs))
	for i := range ps {
		ps[i] = 0.5
	}
	return ps
}

// DetectProb estimates the detection probability of one fault under the
// usual signal-independence heuristic: the activation probability of
// the fault's kind times the probability the fault site is observed.
//
//   - stuck-at: P(site = ¬stuck) · obs
//   - bridging: P(site = ¬stuck) · P(aggressor = stuck) · obs — the
//     short only drives the victim while the aggressor dominates
//   - transition: P(site = stuck) · P(site = ¬stuck) · obs — the launch
//     pattern must hold the faulty value, the independent capture
//     pattern the good one (per launch/capture opportunity)
func (r *Analysis) DetectProb(f fault.Fault) float64 {
	site := f.Site(r.C)
	ctrl := r.Prob[site]
	var obs float64
	if f.IsStem() {
		obs = r.Obs[f.Gate]
	} else {
		obs = r.PinObs[f.Gate][f.Pin]
	}
	act := ctrl
	if f.StuckAt {
		act = 1 - ctrl
	}
	switch {
	case f.Kind.IsBridge():
		aggr := r.Prob[f.Aggressor]
		if !f.StuckAt {
			aggr = 1 - aggr
		}
		act *= aggr
	case f.Kind.IsTransition():
		act *= 1 - act
	}
	return logic.Clamp01(act * obs)
}

// DetectProbs evaluates DetectProb over a fault list.
func (r *Analysis) DetectProbs(fs []fault.Fault) []float64 {
	return r.DetectProbsInto(make([]float64, len(fs)), fs)
}

// DetectProbsInto is DetectProbs writing into a caller-owned slice
// (len(dst) must equal len(fs)), the allocation-free form the
// optimizer's inner loop uses.
func (r *Analysis) DetectProbsInto(dst []float64, fs []fault.Fault) []float64 {
	for i, f := range fs {
		dst[i] = r.DetectProb(f)
	}
	return dst
}
