// Package protest is a Go implementation of PROTEST, the probabilistic
// testability analysis tool of Wunderlich (DAC 1985).
//
// PROTEST estimates, for every single stuck-at fault of a combinational
// circuit, the probability that a random test pattern detects it.  From
// these estimates it derives
//
//   - a testability measure (poorly testable faults are the ones with
//     tiny detection probabilities),
//   - the number of random patterns needed to reach a target fault
//     coverage with a chosen confidence, and
//   - optimized per-input signal probabilities ("weighted random
//     patterns") that can shrink the necessary test length by several
//     orders of magnitude on random-pattern-resistant circuits.
//
// # Quick start
//
// The package is organized around a per-circuit Session: Open resolves
// the collapsed fault list and the compiled analysis plan through a
// process-wide artifact store, which also caches the uniform analysis
// and every other per-circuit result, so Sessions on the same circuit
// share them and every method reuses them.  Sessions are lock-free: all
// methods are safe for concurrent use and run genuinely in parallel,
// with results bit-identical to a serial execution.
//
//	c, _ := protest.ParseNetlistString(src, "mydesign")
//	s, _ := protest.Open(c)                            // collapse faults, build the plan
//	res, _ := s.Analyze(ctx, nil)                      // nil = uniform p = 0.5
//	n, _ := s.TestLength(1.0, 0.98)                    // patterns for 98% confidence
//	opt, _ := s.Optimize(ctx, protest.OptimizeOptions{})
//
// Sessions are configured with functional options (WithParams,
// WithObsModel, WithSeed, WithFastParams, WithProgress, WithWorkers),
// honor context cancellation in every context-taking method (errors
// match ErrCanceled), and expose the complete paper workflow —
// analyze, size, optimize, quantize, validate — as one call:
//
//	rep, _ := s.Run(ctx, protest.PipelineSpec{Optimize: true})
//
// The returned Report is JSON-serializable and carries the estimated
// and the fault-simulated evidence for each pattern plan.
//
// Every analysis, optimization, simulation and self-test measurement
// runs through a Session method.  The package-level functions are
// context-free helpers around them: fault lists, test-length formulas,
// pattern generators, exact oracles and netlist I/O.
//
// The analysis estimates signal probabilities with reconvergent-fanout
// correction (joining points, bounded by the MAXVERS/MAXLIST parameters
// of the original tool), propagates observabilities through the
// signal-flow model with the operator t ⊞ y = t+y−2ty, and validates
// everything against a built-in bit-parallel fault simulator.
package protest

import (
	"io"

	"protest/internal/atpg"
	"protest/internal/bdd"
	"protest/internal/bist"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/netlist"
	"protest/internal/optimize"
	"protest/internal/pattern"
	"protest/internal/shard"
	"protest/internal/stafan"
	"protest/internal/stats"
	"protest/internal/testlen"
)

// Core circuit types, re-exported from the implementation packages so
// downstream users need only import this package.
type (
	// Circuit is an immutable combinational circuit.
	Circuit = circuit.Circuit
	// NodeID indexes a node within a circuit.
	NodeID = circuit.NodeID
	// Node is one vertex of the circuit graph.
	Node = circuit.Node
	// Builder constructs circuits programmatically.
	Builder = circuit.Builder
	// Stats summarizes circuit structure.
	CircuitStats = circuit.Stats

	// Fault is one fault of a universe: a stuck-at, bridging or
	// transition fault, distinguished by its Kind.
	Fault = fault.Fault
	// FaultKind distinguishes the fault flavours within a universe.
	FaultKind = fault.Kind
	// FaultModel names a fault universe (see WithFaultModel).
	FaultModel = fault.Model

	// Params tunes the probabilistic analysis (MAXVERS, MAXLIST, ...).
	Params = core.Params
	// Analysis holds estimated signal probabilities, observabilities
	// and fault detection probabilities.
	Analysis = core.Analysis
	// Program is the immutable compiled analysis artifact of one
	// (circuit, params) pair: safe for unlimited concurrent use and
	// shared between Sessions through the artifact store.
	Program = core.Program
	// Evaluator holds the mutable per-run scratch of one analysis
	// evaluation; acquire one per goroutine from Program.Acquire.
	Evaluator = core.Evaluator
	// ObsModel selects the fanout-stem observability model.
	ObsModel = core.ObsModel

	// Generator produces weighted random pattern blocks.
	Generator = pattern.Generator

	// SimResult holds per-fault detection counts from fault simulation.
	SimResult = faultsim.Result
	// CoveragePoint is one row of a fault-coverage curve.
	CoveragePoint = faultsim.CoveragePoint
	// SimEngine selects the fault-simulation engine (see WithSimEngine).
	SimEngine = faultsim.EngineKind

	// OptimizeOptions controls input-probability optimization.
	OptimizeOptions = optimize.Options
	// OptimizeResult is the outcome of an optimization run.
	OptimizeResult = optimize.Result

	// TestLengthRow is one (d, e, N) row of a test-length table.
	TestLengthRow = testlen.Row

	// Summary bundles error and correlation measures between estimated
	// and simulated detection probabilities.
	Summary = stats.Summary
)

// Observability models for Params.ObsModel.
const (
	// ObsXorTree combines fanout branches with t ⊞ y = t+y-2ty.
	ObsXorTree = core.ObsXorTree
	// ObsOr combines fanout branches with 1-Π(1-s).
	ObsOr = core.ObsOr
)

// Fault-simulation engines for WithSimEngine.  Every measurement of a
// Session, self tests (RunBIST, or a pipeline's BIST phase) included,
// runs on the Session's engine.
const (
	// SimEngineFFR partitions the fault list by fanout-free region:
	// critical path tracing to each stem plus one dominator-bounded
	// stem propagation per region and block (the default).
	SimEngineFFR = faultsim.EngineFFR
	// SimEngineNaive re-simulates every fault cone individually — the
	// independent oracle the FFR engine is validated against.
	SimEngineNaive = faultsim.EngineNaive
)

// ParseSimEngine parses an engine name: "ffr" (or empty) and "naive".
func ParseSimEngine(s string) (SimEngine, error) {
	return faultsim.ParseEngine(s)
}

// Fault models for WithFaultModel, PipelineSpec.FaultModel and
// ValidateSpec.FaultModel.
const (
	// FaultModelStuckAt is the collapsed single stuck-at universe (the
	// default; the zero FaultModel value behaves identically).
	FaultModelStuckAt = fault.ModelStuckAt
	// FaultModelBridging enumerates wired-AND/wired-OR shorts between
	// same-level neighbours of the levelized netlist.
	FaultModelBridging = fault.ModelBridging
	// FaultModelTransition enumerates slow-to-rise/slow-to-fall faults
	// on the collapsed stuck-at sites with launch/capture two-pattern
	// semantics inside each 64-pattern block.
	FaultModelTransition = fault.ModelTransition
)

// ParseFaultModel parses a fault-model name: "stuck-at" (or empty),
// "bridging" and "transition" (with a few aliases).
func ParseFaultModel(s string) (FaultModel, error) {
	return fault.ParseModel(s)
}

// FaultModels lists the supported fault models in canonical order.
func FaultModels() []FaultModel { return fault.Models() }

// NewBuilder starts constructing a circuit with the given name.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseNetlist reads a circuit in .bench syntax.
func ParseNetlist(r io.Reader, name string) (*Circuit, error) {
	return netlist.Parse(r, name)
}

// ParseNetlistString parses a .bench netlist from a string.
func ParseNetlistString(src, name string) (*Circuit, error) {
	return netlist.ParseString(src, name)
}

// ScanInfo describes a combinational core extracted from a sequential
// (scan-design) netlist: every DFF becomes a pseudo-input and a
// pseudo-output, the reduction scan paths implement physically.
type ScanInfo = netlist.ScanInfo

// ParseScanNetlist reads an ISCAS-89-style netlist that may contain
// DFF elements and extracts the combinational core PROTEST analyzes.
func ParseScanNetlist(r io.Reader, name string) (*ScanInfo, error) {
	return netlist.ParseScan(r, name)
}

// ParseScanNetlistString is the string form of ParseScanNetlist.
func ParseScanNetlistString(src, name string) (*ScanInfo, error) {
	return netlist.ParseScanString(src, name)
}

// WriteNetlist renders a circuit in .bench syntax.
func WriteNetlist(w io.Writer, c *Circuit) error { return netlist.Write(w, c) }

// NetlistString renders a circuit as a .bench string.
func NetlistString(c *Circuit) (string, error) { return netlist.String(c) }

// DefaultParams returns the analysis setting used throughout the paper
// reproduction (MAXVERS=4, MAXLIST=8, exact local boolean differences).
func DefaultParams() Params { return core.DefaultParams() }

// FastParams returns a cheaper setting for inner optimization loops.
func FastParams() Params { return core.FastParams() }

// UniformProbs returns the conventional tuple p_i = 0.5.
func UniformProbs(c *Circuit) []float64 { return core.UniformProbs(c) }

// NewProgram compiles the analysis plan of (c, p) for repeated and
// concurrent evaluation; see Program.
func NewProgram(c *Circuit, p Params) (*Program, error) {
	return core.NewProgram(c, p)
}

// Faults returns the collapsed single stuck-at fault list of a circuit.
func Faults(c *Circuit) []Fault { return fault.Collapse(c) }

// FaultsFor enumerates and collapses a fault model's universe for a
// circuit.
func FaultsFor(c *Circuit, m FaultModel) []Fault { return m.Faults(c) }

// AllFaults returns the complete (uncollapsed) stuck-at fault universe.
func AllFaults(c *Circuit) []Fault { return fault.Universe(c) }

// ExactDetectProbs computes exact detection probabilities by weighted
// exhaustive enumeration (circuits with <= 20 inputs).
func ExactDetectProbs(c *Circuit, faults []Fault, inputProbs []float64) ([]float64, error) {
	return core.ExactDetectProbs(c, faults, inputProbs)
}

// RequiredPatterns returns the smallest N such that N random patterns
// detect every fault (given its detection probability) with confidence
// e — formula (3) of the paper.
func RequiredPatterns(detectProbs []float64, e float64) (int64, error) {
	return testlen.Required(detectProbs, e)
}

// RequiredPatternsFraction restricts the fault set to the d·100%
// easiest faults before computing the test length (the paper's F_d).
func RequiredPatternsFraction(detectProbs []float64, d, e float64) (int64, error) {
	return testlen.RequiredFraction(detectProbs, d, e)
}

// PatternSetProbability returns P_F: the probability that n patterns
// detect all faults.
func PatternSetProbability(detectProbs []float64, n int64) float64 {
	return testlen.SetProbability(detectProbs, n)
}

// ExpectedCoverage returns the expected fault coverage of n patterns.
func ExpectedCoverage(detectProbs []float64, n int64) float64 {
	return testlen.ExpectedCoverage(detectProbs, n)
}

// TestLengthTable computes N for every (d, e) combination.
func TestLengthTable(detectProbs []float64, ds, es []float64) []TestLengthRow {
	return testlen.Table(detectProbs, ds, es)
}

// NewUniformGenerator creates a deterministic generator of uniform
// random patterns for n inputs.
func NewUniformGenerator(n int, seed uint64) *Generator {
	return pattern.NewUniform(n, seed)
}

// NewWeightedGenerator creates a generator with per-input probabilities
// (e.g. an optimized tuple).
func NewWeightedGenerator(probs []float64, seed uint64) (*Generator, error) {
	return pattern.NewWeighted(probs, seed)
}

// QuantizeProbs snaps probabilities onto the k/grid lattice realizable
// by hardware weighted-pattern generators (Table 4 uses grid = 16),
// clamping to [1/grid, (grid-1)/grid].  A grid <= 1 has no such
// lattice and means "no quantization": the input probabilities are
// returned unchanged (as a fresh slice) — the same contract
// PipelineSpec.QuantizeGrid documents.
func QuantizeProbs(probs []float64, grid int) []float64 {
	return pattern.QuantizeGrid(probs, grid)
}

// Summarize computes max/average error and correlation between
// estimated and simulated detection probabilities (Table 1 measures).
func Summarize(estimated, simulated []float64) Summary {
	return stats.Summarize(estimated, simulated)
}

// ScatterPlot renders an ASCII correlation diagram (Figures 5/6).
func ScatterPlot(x, y []float64, width, height int, xLabel, yLabel string) string {
	return stats.Scatter(x, y, width, height, xLabel, yLabel)
}

// ExactProbsBDD computes exact signal probabilities through reduced
// ordered binary decision diagrams.  Unlike ExactDetectProbs's 2^n
// enumeration this scales with the circuit's BDD size, not its input
// count (COMP's 51 inputs are exact in milliseconds); it fails with
// bdd.ErrNodeBudget on circuits whose diagrams explode (multipliers).
// nodeBudget <= 0 selects a one-million-node default.
func ExactProbsBDD(c *Circuit, inputProbs []float64, nodeBudget int) ([]float64, error) {
	bc, err := bdd.FromCircuit(c, nodeBudget)
	if err != nil {
		return nil, err
	}
	return bc.Probs(inputProbs)
}

// StafanResult holds STAFAN-style simulation-extrapolated testability
// measures (the contemporary alternative the paper compares against).
type StafanResult = stafan.Result

// AnalyzeStafan extrapolates STAFAN controllabilities/observabilities
// from numPatterns fault-free simulated patterns.
func AnalyzeStafan(c *Circuit, gen *Generator, numPatterns int) (*StafanResult, error) {
	return stafan.Analyze(c, gen, numPatterns)
}

// BISTPlan and BISTResult describe a simulated self-test session with
// MISR response compaction (section 8 of the paper).
type (
	BISTPlan   = bist.Plan
	BISTResult = bist.Result
)

// Multi-distribution optimization types (gradient-clustered weight
// sets, the follow-up direction to the paper's single tuple).
type (
	MultiOptimizeOptions = optimize.MultiOptions
	MultiOptimizeResult  = optimize.MultiResult
)

// ATPG types: the deterministic second stage behind the random phase
// PROTEST sizes (PODEM with SCOAP-guided backtrace).
type (
	// ATPG is a deterministic test generator for one circuit.
	ATPG = atpg.Generator
	// ATPGResult is the outcome of one generation attempt.
	ATPGResult = atpg.Result
)

// ATPG statuses.
const (
	ATPGDetected   = atpg.Detected
	ATPGUntestable = atpg.Untestable
	ATPGAborted    = atpg.Aborted
)

// NewATPG creates a PODEM test generator for the circuit.
func NewATPG(c *Circuit) *ATPG { return atpg.New(c) }

// ATPGTestBools converts a PODEM test cube to a boolean pattern,
// filling unassigned positions with fill.
func ATPGTestBools(test []atpg.V, fill bool) []bool { return atpg.TestBools(test, fill) }

// Sharded fault-simulation types: a ShardPool distributes simulation
// and coverage measurements over `protest serve -worker` processes with
// retries, health-based ejection and local fallback, merging results
// bit-identically to in-process execution (see WithShardPool).
type (
	// ShardPool is the failure-aware coordinator.
	ShardPool = shard.Pool
	// ShardPoolConfig names a pool's workers, and optionally its
	// transport and backoff-jitter seed; ShardPoolConfig{Workers: addrs}
	// works.
	ShardPoolConfig = shard.Config
	// ShardStats is a pool's counter snapshot (exposed in /healthz).
	ShardStats = shard.Stats
)

// NewShardPool creates a ShardPool and starts its worker re-admission
// prober; Close it when done.  An empty Workers list is valid and
// yields a permanently degraded pool that runs everything locally.
func NewShardPool(cfg ShardPoolConfig) *ShardPool {
	return shard.NewPool(cfg)
}

// Benchmark builds a registered benchmark circuit by name.  The
// built-in suite registers "c17", "alu" (SN74181), "mult" (8-bit
// A+B+C*D), "div" (16-bit array divider), "comp" (24-bit cascaded
// comparator), "sn7485", "cla16" (carry-lookahead adder) and "add8"
// (ripple adder); RegisterBenchmark adds more.
func Benchmark(name string) (*Circuit, bool) {
	return circuits.Lookup(name)
}

// RegisterBenchmark makes a circuit constructor available to Benchmark
// under name, replacing any previous registration.  The constructor
// must build a fresh circuit on every call.
func RegisterBenchmark(name string, build func() *Circuit) {
	circuits.Register(name, build)
}

// BenchmarkNames lists the registered benchmark circuits in sorted
// order.
func BenchmarkNames() []string {
	return circuits.Names()
}
