package protest

import (
	"context"
	"fmt"

	"protest/internal/artifact"
	"protest/internal/core"
	"protest/internal/faultsim"
	"protest/internal/optimize"
	"protest/internal/pattern"
	"protest/internal/shard"
)

// Phase identifies one stage of a Session's work, as reported to the
// WithProgress callback and executed by Session.Run.
type Phase string

// The pipeline phases, in the order Session.Run executes them.
const (
	PhaseAnalyze    Phase = "analyze"
	PhaseTestLength Phase = "testlen"
	PhaseOptimize   Phase = "optimize"
	PhaseQuantize   Phase = "quantize"
	PhaseSimulate   Phase = "simulate"
	PhaseBIST       Phase = "bist"
	PhaseSummarize  Phase = "summarize"
)

// Session is a per-circuit analysis handle.  It keeps only its
// configuration, its canonical circuit and its compiled analysis
// program (conditioning cones, joining points, compiled propagation
// programs); every other per-circuit result — fault lists, simulation
// plans, self-test programs, the uniform analysis and the uniform
// plan's test-length sets — is cached in the shared artifact store and
// read from it on each call.  Any number of Sessions on the same
// circuit therefore share one set of artifacts, and opening another
// Session on a warm circuit costs a few store lookups.
//
// # Concurrency model
//
// All methods are safe for concurrent use, and genuinely concurrent:
// a Session holds no lock around its work.  Its configuration and the
// compiled artifacts are immutable after Open; every call acquires the
// mutable evaluation scratch it needs (analysis evaluators, simulation
// engines, BIST run state) from per-artifact sync.Pools and releases
// it on return.  Results are bit-identical to a serial execution of
// the same calls: artifacts are static, evaluation kernels are
// deterministic, and every pattern stream is derived per call from the
// Session seed — so N goroutines hammering one Session observe exactly
// the values a single-threaded caller would.
//
// Long-running methods take a context.Context and return an error
// matching ErrCanceled when it is cancelled; cancellation never
// corrupts the Session, which stays usable afterwards.
type Session struct {
	c         *Circuit
	params    Params
	fast      Params
	seed      uint64
	workers   int
	simEngine SimEngine
	model     FaultModel // normalized default fault model
	progress  func(Phase, float64)
	store     *artifact.Store
	pool      *shard.Pool

	prog *core.Program // compiled analysis program under params
}

// Option configures a Session at Open time.  Options are applied in
// order, so later options win over earlier ones.  A Session's
// configuration is immutable after Open — that immutability is what
// lets its methods run concurrently without locking.
type Option func(*Session)

// WithParams sets the analysis parameters used by Analyze, TestLength
// and the reporting passes (default DefaultParams()).
func WithParams(p Params) Option {
	return func(s *Session) { s.params = p }
}

// WithObsModel selects the fanout-stem observability model on top of
// the current parameters.
func WithObsModel(m ObsModel) Option {
	return func(s *Session) { s.params.ObsModel = m }
}

// WithFastParams sets the cheaper parameters used inside optimization
// loops (default FastParams()).
func WithFastParams(p Params) Option {
	return func(s *Session) { s.fast = p }
}

// WithSeed seeds every deterministic random stream the Session derives
// (pattern generators, optimizer restarts; default 1).
func WithSeed(seed uint64) Option {
	return func(s *Session) { s.seed = seed }
}

// WithWorkers runs the Session's parallelizable phases — optimizer
// candidate scoring, gradient clustering, and FFR fault simulation and
// coverage curves — on n goroutines.  Every result is identical to
// the serial one: parallel fault simulation shares the same generator
// stream and per-fault counts, and the optimizer accepts moves in the
// serial first-improvement order.  n <= 1 stays serial (the default);
// negative n selects GOMAXPROCS, and n beyond GOMAXPROCS is clamped to
// it (oversubscription only adds scheduler contention, never speed).
// The naive oracle engine (SimEngineNaive) always runs serially.
// Run and Validate use the Session's count for every phase; their
// specs carry none.  A library caller's OptimizeOptions.Workers
// overrides it for that climb only.
func WithWorkers(n int) Option {
	return func(s *Session) { s.workers = n }
}

// WithSimEngine selects the fault-simulation engine used by Simulate,
// SimulateWeighted, CoverageCurve, RunBIST and the pipeline's
// validation phases.  The default SimEngineFFR partitions the fault
// list by fanout-free region and is typically several times faster;
// SimEngineNaive re-simulates every fault cone individually, serially,
// and is kept as the independent oracle.  Results are bit-identical.
// Open fails on any other value.  Run and Validate use the Session's
// engine; their specs carry none.
func WithSimEngine(e SimEngine) Option {
	return func(s *Session) { s.simEngine = e }
}

// WithFaultModel selects the fault universe the Session analyzes,
// simulates and validates: FaultModelStuckAt (the default),
// FaultModelBridging or FaultModelTransition.  All engines, oracles
// and the sharded path understand every model; stuck-at behaviour and
// results are unchanged from before the model knob existed.
// Individual PipelineSpec/ValidateSpec.FaultModel values override the
// Session default per call.
func WithFaultModel(m FaultModel) Option {
	return func(s *Session) { s.model = m }
}

// WithShardPool distributes the Session's fault simulation and
// coverage curves, those of every Run and Validate included, across
// the pool's workers.  Workers rebuild the
// Session's circuit node for node from its netlist and merge by the
// Session's own fault order, so results stay bit-identical to local
// execution.  The pool degrades to local in-process execution, on the
// run's workers, when no worker is healthy, so correctness never
// depends on worker availability, and a circuit the netlist cannot
// carry exactly (truth-table gates) always runs locally.  The pool is shared, not owned:
// many Sessions may use one Pool, and closing it is the caller's job.
// The naive oracle engine (SimEngineNaive) always runs locally so it
// stays an independent cross-check.
func WithShardPool(p *ShardPool) Option {
	return func(s *Session) { s.pool = p }
}

// WithProgress installs a callback receiving (phase, fraction in
// [0,1]) while long-running methods work.  The callback runs on the
// goroutine performing the work; when the Session is used from several
// goroutines it is called concurrently and must be safe for that.  It
// must be cheap; cancelling a context from inside it is fine, and so
// is calling back into the Session (no lock is held).
func WithProgress(fn func(Phase, float64)) Option {
	return func(s *Session) { s.progress = fn }
}

// Open creates a Session for the circuit.  It interns the circuit in
// the shared artifact store and resolves the collapsed fault list and
// the compiled analysis plan there, building them only if no other
// Session (or experiment) has already paid for them.  It fails with
// ErrNoFaults when the circuit has no faults to analyze, and with a
// parameter error when an option selected invalid Params.
func Open(c *Circuit, opts ...Option) (*Session, error) {
	if c == nil {
		return nil, fmt.Errorf("protest: Open: nil circuit")
	}
	s := &Session{
		params: DefaultParams(),
		fast:   FastParams(),
		seed:   1,
		store:  artifact.Default,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := faultsim.CheckEngine(s.simEngine); err != nil {
		return nil, fmt.Errorf("protest: Open: %w", err)
	}
	if !s.model.Valid() {
		return nil, fmt.Errorf("protest: Open: %w: %q", ErrBadFaultModel, string(s.model))
	}
	s.model = s.model.Normalize()
	s.c = s.store.Intern(c)
	faults := s.store.FaultsFor(s.c, s.model)
	if len(faults) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoFaults, s.c.Name)
	}
	prog, err := s.store.Program(s.c, s.params)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	return s, nil
}

// Circuit returns the circuit this Session analyzes — the canonical
// interned instance, which is structurally identical to the circuit
// passed to Open but may be a different pointer when another Session
// opened an equal circuit first.
func (s *Session) Circuit() *Circuit { return s.c }

// Params returns the analysis parameters the Session was opened with.
func (s *Session) Params() Params { return s.params }

// FaultModel returns the Session's default fault model.
func (s *Session) FaultModel() FaultModel { return s.model }

// Faults returns a copy of the Session's fault list (the default
// model's universe — collapsed stuck-at unless WithFaultModel chose
// another model).
func (s *Session) Faults() []Fault {
	return append([]Fault(nil), s.modelFaults(s.model)...)
}

// modelFaults returns the store's shared fault list of model m (hand
// out copies only).
func (s *Session) modelFaults(m FaultModel) []Fault { return s.store.FaultsFor(s.c, m) }

// runCfg is the effective per-call configuration: the Session defaults
// with any per-call overrides (runCfg.with) applied.  Threading it
// through instead of mutating Session fields is what keeps concurrent
// calls isolated.
type runCfg struct {
	workers  int
	engine   SimEngine
	model    FaultModel // normalized
	progress func(Phase, float64)
	pool     *shard.Pool
}

func (s *Session) cfg() runCfg {
	return runCfg{workers: s.workers, engine: s.simEngine, model: s.model, progress: s.progress, pool: s.pool}
}

// with applies one run's overrides (the PipelineSpec or ValidateSpec
// fields of the same names): each non-zero value replaces the Session
// default for this run only.
func (cfg runCfg) with(model FaultModel, progress func(Phase, float64)) runCfg {
	if model != "" {
		cfg.model = model.Normalize()
	}
	if progress != nil {
		cfg.progress = progress
	}
	return cfg
}

func (cfg runCfg) emit(ph Phase, frac float64) {
	if cfg.progress != nil {
		cfg.progress(ph, frac)
	}
}

// Analyze estimates signal probabilities, observabilities and (through
// Analysis.DetectProbs) fault detection probabilities for one input
// tuple.  A nil inputProbs means the conventional uniform tuple
// p_i = 0.5, whose analysis is cached in the artifact store; callers
// get a copy, so mutating the result cannot corrupt TestLength and Run.
func (s *Session) Analyze(ctx context.Context, inputProbs []float64) (*Analysis, error) {
	if inputProbs == nil {
		res, err := s.uniform(ctx, s.cfg())
		if err != nil {
			return nil, err
		}
		return res.Clone(), nil
	}
	return s.analyze(ctx, inputProbs, s.cfg())
}

// analyze runs one analysis pass for a weighted tuple.
func (s *Session) analyze(ctx context.Context, inputProbs []float64, cfg runCfg) (*Analysis, error) {
	cfg.emit(PhaseAnalyze, 0)
	res, err := s.prog.Run(ctx, inputProbs)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	cfg.emit(PhaseAnalyze, 1)
	return res, nil
}

// uniform returns the store's shared uniform analysis, which must be
// treated as read-only.  A call that runs the pass or waits for it
// reports PhaseAnalyze 0 and 1.
func (s *Session) uniform(ctx context.Context, cfg runCfg) (*Analysis, error) {
	res, err := s.store.Uniform(ctx, s.c, s.params, func(frac float64) { cfg.emit(PhaseAnalyze, frac) })
	return res, wrapCanceled(err)
}

// TestLength returns the number of uniform random patterns needed to
// detect the d·100% easiest faults with confidence e — the paper's
// N(F_d, e).  The underlying uniform analysis and its test-length set
// are cached in the artifact store; the first call on a cold circuit
// therefore runs a full (uncancellable) analysis pass.  To keep that
// pass under a context, prime the store with Analyze(ctx, nil) first.
func (s *Session) TestLength(d, e float64) (int64, error) {
	tl, err := s.uniformTestLen(context.Background(), s.cfg())
	if err != nil {
		return 0, err
	}
	return tl.Set.RequiredFraction(d, e)
}

// uniformTestLen returns the store's test-length set of the uniform
// plan under the effective model.  It resolves the uniform analysis
// first, so the call reports PhaseAnalyze exactly when it runs that
// pass or waits for it.
func (s *Session) uniformTestLen(ctx context.Context, cfg runCfg) (*artifact.TestLen, error) {
	if _, err := s.uniform(ctx, cfg); err != nil {
		return nil, err
	}
	tl, err := s.store.TestLenFor(ctx, s.c, s.params, cfg.model)
	return tl, wrapCanceled(err)
}

// simOptions bundles the effective FFR worker configuration.
func (cfg runCfg) simOptions() faultsim.Options {
	return faultsim.Options{Workers: cfg.workers}
}

// Optimize hill-climbs the per-input signal probabilities to maximize
// the estimated whole-set detection probability J_N (section 6 of the
// paper).  The zero Options value selects the documented defaults:
// opt.Params defaults to the Session's fast parameters, opt.Workers
// (when 0) to the Session's worker count, and opt.Seed (when 0 and
// opt.SeedSet is false) to the Session seed — set opt.SeedSet to run
// with an explicit seed 0.
func (s *Session) Optimize(ctx context.Context, opt OptimizeOptions) (*OptimizeResult, error) {
	return s.optimize(ctx, s.modelFaults(s.model), opt, s.cfg())
}

func (s *Session) optimize(ctx context.Context, faults []Fault, opt OptimizeOptions, cfg runCfg) (*OptimizeResult, error) {
	prog, err := s.optimizeProgram(&opt, cfg)
	if err != nil {
		return nil, err
	}
	res, err := optimize.Optimize(ctx, prog, faults, opt)
	return res, wrapCanceled(err)
}

// optimizeProgram fills the option defaults (Params, Seed, Workers,
// progress) and returns the compiled program the climb should run on.
// Both the fast-parameter default and per-call parameter overrides
// resolve through the same artifact-store path, so repeated climbs —
// from this Session or any other on the same circuit — share one
// compiled plan per parameter set.
func (s *Session) optimizeProgram(opt *OptimizeOptions, cfg runCfg) (*core.Program, error) {
	// Seed 0 is a valid RNG seed; only an *unset* seed (zero value
	// without SeedSet) falls back to the Session seed.
	if opt.Seed == 0 && !opt.SeedSet {
		opt.Seed = s.seed
	}
	if opt.Workers == 0 {
		opt.Workers = cfg.workers
	}
	if cfg.progress != nil && opt.OnSweep == nil {
		opt.OnSweep = func(done, max int) {
			// Sweep counts accumulate across restart climbs, so the
			// ratio can pass 1; clamp to keep the [0,1] contract.
			frac := float64(done) / float64(max)
			if frac > 1 {
				frac = 1
			}
			cfg.emit(PhaseOptimize, frac)
		}
	}
	if opt.Params == nil {
		fp := s.fast
		opt.Params = &fp
	}
	return s.store.Program(s.c, *opt.Params)
}

// OptimizeMulti derives several weighted-pattern distributions, each
// serving the fault group whose detection gradients align (the
// follow-up direction to the paper's single tuple).
func (s *Session) OptimizeMulti(ctx context.Context, opt MultiOptimizeOptions) (*MultiOptimizeResult, error) {
	prog, err := s.optimizeProgram(&opt.PerSet, s.cfg())
	if err != nil {
		return nil, err
	}
	res, err := optimize.OptimizeMulti(ctx, prog, s.modelFaults(s.model), opt)
	return res, wrapCanceled(err)
}

// generator builds the Session-seeded pattern source: uniform when
// probs is nil, weighted otherwise.
func (s *Session) generator(probs []float64) (*Generator, error) {
	if probs == nil {
		return pattern.NewUniform(len(s.c.Inputs), s.seed), nil
	}
	if len(probs) != len(s.c.Inputs) {
		return nil, fmt.Errorf("protest: %w: %d probabilities for %d inputs", ErrBadProbs, len(probs), len(s.c.Inputs))
	}
	gen, err := pattern.NewWeighted(probs, s.seed)
	if err != nil {
		return nil, fmt.Errorf("protest: %w: %v", ErrBadProbs, err)
	}
	return gen, nil
}

// Simulate fault-simulates numPatterns uniform random patterns and
// counts how many detect each fault (the P_SIM measurement).  A
// numPatterns below 1 fails with ErrBadSpec.
func (s *Session) Simulate(ctx context.Context, numPatterns int) (*SimResult, error) {
	return s.SimulateWeighted(ctx, nil, numPatterns)
}

// SimulateWeighted is Simulate with per-input pattern probabilities; a
// nil probs means uniform.
func (s *Session) SimulateWeighted(ctx context.Context, probs []float64, numPatterns int) (*SimResult, error) {
	if numPatterns < 1 {
		return nil, fmt.Errorf("simulate: %w: %d patterns, want at least 1", ErrBadSpec, numPatterns)
	}
	return s.simulate(ctx, probs, numPatterns, s.cfg())
}

func (s *Session) simulate(ctx context.Context, probs []float64, numPatterns int, cfg runCfg) (*SimResult, error) {
	gen, err := s.generator(probs)
	if err != nil {
		return nil, err
	}
	cfg.emit(PhaseSimulate, 0)
	progress := func(done, total int) {
		cfg.emit(PhaseSimulate, float64(done)/float64(total))
	}
	var res *SimResult
	if cfg.engine == SimEngineNaive {
		// The oracle path never reads the FFR plan; skip building it.
		res, err = faultsim.MeasureDetectionNaive(ctx, s.c, s.modelFaults(cfg.model), gen, numPatterns, progress)
	} else if cfg.pool != nil {
		// Sharded across the pool's workers; probs were validated by the
		// generator above, and the merge is bit-identical to local.
		res, err = cfg.pool.MeasureDetection(ctx, s.store.SimPlanFor(s.c, cfg.model), cfg.model, s.seed, probs, numPatterns, cfg.simOptions(), progress)
	} else {
		res, err = s.store.SimPlanFor(s.c, cfg.model).MeasureDetection(ctx, gen, numPatterns, cfg.simOptions(), progress)
	}
	return res, wrapCanceled(err)
}

// CoverageCurve fault-simulates with fault dropping and reports the
// cumulative coverage at each checkpoint; nil probs means uniform
// patterns.  A negative checkpoint fails with ErrBadSpec.
func (s *Session) CoverageCurve(ctx context.Context, probs []float64, checkpoints []int) ([]CoveragePoint, error) {
	for _, cp := range checkpoints {
		if cp < 0 {
			return nil, fmt.Errorf("coverage curve: %w: checkpoint %d is negative", ErrBadSpec, cp)
		}
	}
	cfg := s.cfg()
	gen, err := s.generator(probs)
	if err != nil {
		return nil, err
	}
	progress := func(done, total int) {
		cfg.emit(PhaseSimulate, float64(done)/float64(total))
	}
	var points []CoveragePoint
	if cfg.engine == SimEngineNaive {
		points, err = faultsim.CoverageCurveNaive(ctx, s.c, s.modelFaults(cfg.model), gen, checkpoints, progress)
	} else if cfg.pool != nil {
		points, err = cfg.pool.CoverageCurve(ctx, s.store.SimPlanFor(s.c, cfg.model), cfg.model, s.seed, probs, checkpoints, cfg.simOptions(), progress)
	} else {
		points, err = s.store.SimPlanFor(s.c, cfg.model).CoverageCurve(ctx, gen, checkpoints, cfg.simOptions(), progress)
	}
	return points, wrapCanceled(err)
}

// RunBIST simulates a complete self-test session with MISR response
// compaction driven by uniform patterns (a classic BILBO source).
func (s *Session) RunBIST(ctx context.Context, plan BISTPlan) (*BISTResult, error) {
	return s.RunBISTWeighted(ctx, nil, plan)
}

// RunBISTWeighted is RunBIST with a weighted pattern source standing
// in for an NLFSR generator; nil probs means uniform.
func (s *Session) RunBISTWeighted(ctx context.Context, probs []float64, plan BISTPlan) (*BISTResult, error) {
	return s.runBIST(ctx, probs, plan, s.cfg())
}

func (s *Session) runBIST(ctx context.Context, probs []float64, plan BISTPlan, cfg runCfg) (*BISTResult, error) {
	gen, err := s.generator(probs)
	if err != nil {
		return nil, err
	}
	cfg.emit(PhaseBIST, 0)
	res, err := s.store.BISTFor(s.c, cfg.model).Run(ctx, gen, plan, cfg.engine, func(done, total int) {
		cfg.emit(PhaseBIST, float64(done)/float64(total))
	})
	return res, wrapCanceled(err)
}
