// Package experiments regenerates every table and figure of the
// paper's evaluation.  Each experiment returns structured results plus
// a rendered text table; cmd/protest-experiments prints them and
// bench_test.go times them.  EXPERIMENTS.md records paper-vs-measured
// values.
//
// The benchmark circuits are deterministic, immutable constructions
// and the analysis/fault-simulation plans derived from them are pure
// functions of the structure, so both come from the shared artifact
// store (internal/artifact): repeated experiment runs (benchmarks, the
// experiments command) pay for circuit construction, fault collapsing,
// conditioning-plan and FFR-plan derivation once — and share those
// artifacts with any Session open on the same circuits.  Experiment
// functions are safe for concurrent use (evaluation state is pooled
// per call); internal parallelism via Config.Workers composes freely.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/optimize"
	"protest/internal/pattern"
	"protest/internal/stats"
	"protest/internal/testlen"
)

// Memoized circuit ladder (stable pointers keep artifact-store lookups
// on the fast interned path).
var (
	alu74181 = sync.OnceValue(circuits.ALU74181)
	mult8    = sync.OnceValue(circuits.Mult8)
	div16    = sync.OnceValue(circuits.Div16)
	comp24   = sync.OnceValue(circuits.Comp24)
	adder8   = sync.OnceValue(func() *circuit.Circuit { return circuits.RippleAdder(8) })
	mult16   = sync.OnceValue(func() *circuit.Circuit { return circuits.MultN(16) })
	mult28   = sync.OnceValue(func() *circuit.Circuit { return circuits.MultN(28) })
)

// programFor returns the shared compiled analysis program of
// (c, params).  The conditioning plan derivation dominates one-shot
// analysis cost, so sharing it across experiment invocations matters.
func programFor(c *circuit.Circuit, p core.Params) (*core.Program, error) {
	return artifact.Default.Program(c, p)
}

// faultsFor returns the shared collapsed fault list of c.
func faultsFor(c *circuit.Circuit) []fault.Fault {
	return artifact.Default.FaultsFor(c, fault.ModelStuckAt)
}

// simPlanFor returns the shared FFR fault-simulation plan of c over
// its collapsed fault list.
func simPlanFor(c *circuit.Circuit) *faultsim.Plan {
	return artifact.Default.SimPlanFor(c, fault.ModelStuckAt)
}

// Config tunes experiment effort.  The zero value gives the full
// paper-scale runs; Fast reduces pattern counts and sweep budgets for
// benchmarks and smoke tests.
type Config struct {
	Seed     uint64
	Patterns int  // P_SIM pattern budget (default 10000)
	Fast     bool // reduced effort
	// Workers spreads fault simulation (Validity, Table6) and optimizer
	// candidate scoring over goroutines; <= 1 is serial, < 0 selects
	// GOMAXPROCS.  Results are identical for every worker count.
	Workers int
}

func (c Config) patterns() int {
	if c.Patterns > 0 {
		return c.Patterns
	}
	if c.Fast {
		return 2048
	}
	return 10000
}

func (c Config) sweeps() int {
	if c.Fast {
		return 2
	}
	return 16
}

// ---------------------------------------------------------------------
// Table 1 / Figures 5, 6: validity of the estimation.

// ValidityResult is one row of Table 1 plus the scatter data for the
// correlation diagrams.
type ValidityResult struct {
	Circuit   string
	Faults    int
	Summary   stats.Summary // P_PROT vs P_SIM
	ScoapCorr float64       // the AgMe82 baseline
	PProt     []float64
	PSim      []float64
}

// Validity measures estimated vs simulated detection probabilities for
// one circuit at p = 0.5.
func Validity(c *circuit.Circuit, cfg Config) (*ValidityResult, error) {
	faults := faultsFor(c)
	an, err := programFor(c, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	res, err := an.Run(context.Background(), core.UniformProbs(c))
	if err != nil {
		return nil, err
	}
	est := res.DetectProbs(faults)
	gen := pattern.NewUniform(len(c.Inputs), cfg.Seed+1)
	sim, err := simPlanFor(c).MeasureDetection(context.Background(), gen, cfg.patterns(), faultsim.Options{Workers: cfg.Workers}, nil)
	if err != nil {
		return nil, err
	}
	psim := make([]float64, len(faults))
	for i := range faults {
		psim[i] = sim.PSim(i)
	}
	sc := core.ComputeScoap(c)
	scoap := make([]float64, len(faults))
	for i, f := range faults {
		scoap[i] = sc.DetectEstimate(f)
	}
	return &ValidityResult{
		Circuit:   c.Name,
		Faults:    len(faults),
		Summary:   stats.Summarize(est, psim),
		ScoapCorr: stats.Correlation(scoap, psim),
		PProt:     est,
		PSim:      psim,
	}, nil
}

// Table1 runs the validity experiment for ALU and MULT.
func Table1(cfg Config) ([]*ValidityResult, error) {
	var out []*ValidityResult
	for _, c := range []*circuit.Circuit{alu74181(), mult8()} {
		r, err := Validity(c, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderTable1 formats the Table 1 analogue.
func RenderTable1(rows []*ValidityResult) string {
	var sb strings.Builder
	sb.WriteString("Table 1: maximal and average errors and correlations (paper: ALU 0.45/0.04/0.97, MULT 0.48/0.11/0.90)\n")
	fmt.Fprintf(&sb, "%-10s %7s %8s %8s %8s %8s %12s\n", "circuit", "faults", "maxErr", "avgErr", "C0", "bias", "C0(SCOAP)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d %8.2f %8.2f %8.2f %+8.3f %12.2f\n",
			r.Circuit, r.Faults, r.Summary.MaxErr, r.Summary.AvgErr, r.Summary.Corr, r.Summary.Bias, r.ScoapCorr)
	}
	return sb.String()
}

// Scatter renders the Figure 5/6 analogue for one validity result.
func (r *ValidityResult) Scatter() string {
	return stats.Scatter(r.PProt, r.PSim, 60, 20, "P_PROT", "P_SIM ("+r.Circuit+")")
}

// ---------------------------------------------------------------------
// Table 2: test-set sizes for ALU and MULT, with fault-sim validation.

// SizeRow is one row of Tables 2/3/5.
type SizeRow struct {
	Circuit string
	D, E    float64
	N       int64
	Err     error
}

// Table2Result carries the sizes and the validation coverages.
type Table2Result struct {
	Rows []SizeRow
	// Coverage[i] is the measured fault coverage (percent) after
	// simulating Rows[i].N random patterns.
	Coverage []float64
}

// Table2 computes N(d=0.98, e=0.98) for ALU and MULT and validates by
// fault simulation (the paper reports 212 and 454 patterns reaching
// 99.9-100% coverage).
func Table2(cfg Config) (*Table2Result, error) {
	out := &Table2Result{}
	for _, c := range []*circuit.Circuit{alu74181(), mult8()} {
		faults := faultsFor(c)
		an, err := programFor(c, core.DefaultParams())
		if err != nil {
			return nil, err
		}
		res, err := an.Run(context.Background(), core.UniformProbs(c))
		if err != nil {
			return nil, err
		}
		probs := res.DetectProbs(faults)
		n, err := testlen.RequiredFraction(probs, 0.98, 0.98)
		row := SizeRow{Circuit: c.Name, D: 0.98, E: 0.98, N: n, Err: err}
		out.Rows = append(out.Rows, row)
		if err != nil {
			out.Coverage = append(out.Coverage, 0)
			continue
		}
		gen := pattern.NewUniform(len(c.Inputs), cfg.Seed+2)
		curve, err := simPlanFor(c).CoverageCurve(context.Background(), gen, []int{int(n)}, faultsim.Options{}, nil)
		if err != nil {
			return nil, err
		}
		out.Coverage = append(out.Coverage, curve[0].Coverage)
	}
	return out, nil
}

// RenderTable2 formats the Table 2 analogue.
func RenderTable2(r *Table2Result) string {
	var sb strings.Builder
	sb.WriteString("Table 2: size of test sets at d=e=0.98 (paper: ALU 212, MULT 454; simulated coverage 99.9-100%)\n")
	fmt.Fprintf(&sb, "%-10s %6s %6s %10s %12s\n", "circuit", "d", "e", "N", "coverage%")
	for i, row := range r.Rows {
		if row.Err != nil {
			fmt.Fprintf(&sb, "%-10s %6.2f %6.2f %10s %12s\n", row.Circuit, row.D, row.E, "-", row.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %6.2f %6.2f %10d %12.1f\n", row.Circuit, row.D, row.E, row.N, r.Coverage[i])
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Tables 3 and 5: hard circuits, uniform vs optimized probabilities.

var tableDs = []float64{1.0, 0.98}
var tableEs = []float64{0.95, 0.98, 0.999}

// SizeTable computes the (d, e) grid of test lengths for one circuit
// under the given input probabilities.
func SizeTable(c *circuit.Circuit, inputProbs []float64) ([]SizeRow, error) {
	faults := faultsFor(c)
	an, err := programFor(c, core.DefaultParams())
	if err != nil {
		return nil, err
	}
	res, err := an.Run(context.Background(), inputProbs)
	if err != nil {
		return nil, err
	}
	probs := res.DetectProbs(faults)
	var rows []SizeRow
	for _, row := range testlen.Table(probs, tableDs, tableEs) {
		rows = append(rows, SizeRow{Circuit: c.Name, D: row.D, E: row.E, N: row.N, Err: row.Err})
	}
	return rows, nil
}

// Table3 computes the uniform-probability test lengths for DIV and COMP
// (paper: 10^5..10^6 for DIV, ~3-6·10^8 for COMP).
func Table3(cfg Config) (map[string][]SizeRow, error) {
	out := make(map[string][]SizeRow)
	for _, c := range []*circuit.Circuit{div16(), comp24()} {
		rows, err := SizeTable(c, core.UniformProbs(c))
		if err != nil {
			return nil, err
		}
		out[c.Name] = rows
	}
	return out, nil
}

// RenderSizeTable formats a Table 3/5 style grid.
func RenderSizeTable(title string, tables map[string][]SizeRow, names []string) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%6s %7s", "d", "e")
	for _, n := range names {
		fmt.Fprintf(&sb, " %14s", "N("+n+")")
	}
	sb.WriteByte('\n')
	if len(names) == 0 {
		return sb.String()
	}
	for i := range tables[names[0]] {
		r0 := tables[names[0]][i]
		fmt.Fprintf(&sb, "%6.2f %7.3f", r0.D, r0.E)
		for _, n := range names {
			r := tables[n][i]
			if r.Err != nil {
				fmt.Fprintf(&sb, " %14s", "unreachable")
			} else {
				fmt.Fprintf(&sb, " %14d", r.N)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 4: optimized input probabilities for COMP.

// Table4Result carries the optimized tuple for COMP.
type Table4Result struct {
	Circuit *circuit.Circuit
	Opt     *optimize.Result
}

// Table4 optimizes COMP's input probabilities (paper: values on the
// 1/16 grid, 0.88/0.94 on the high-order data bits, 0.63 on TI1..TI3).
func Table4(cfg Config) (*Table4Result, error) {
	c := comp24()
	an, err := programFor(c, core.FastParams())
	if err != nil {
		return nil, err
	}
	faults := faultsFor(c)
	opt, err := optimize.Optimize(context.Background(), an, faults, optimize.Options{
		MaxSweeps: cfg.sweeps(),
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Table4Result{Circuit: c, Opt: opt}, nil
}

// RenderTable4 formats the optimized tuple like the paper's Table 4.
func RenderTable4(r *Table4Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: optimized signal probabilities at the primary inputs of COMP\n")
	c := r.Circuit
	for i, id := range c.Inputs {
		fmt.Fprintf(&sb, "%-5s %4.2f  ", c.Node(id).Name, r.Opt.Probs[i])
		if (i+1)%6 == 0 {
			sb.WriteByte('\n')
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "objective: %.3f -> %.3f (N=%.0f, %d evaluations)\n",
		r.Opt.InitialObjective, r.Opt.Objective, r.Opt.N, r.Opt.Evaluations)
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 5: test lengths with optimized probabilities.

// Table5 optimizes DIV and COMP and recomputes the size grid (paper:
// 5·10^3..10^4 for DIV, 7·10^3..1.5·10^4 for COMP — several orders of
// magnitude below Table 3).
func Table5(cfg Config) (map[string][]SizeRow, map[string][]float64, error) {
	out := make(map[string][]SizeRow)
	tuples := make(map[string][]float64)
	for _, c := range []*circuit.Circuit{div16(), comp24()} {
		an, err := programFor(c, core.FastParams())
		if err != nil {
			return nil, nil, err
		}
		faults := faultsFor(c)
		opt, err := optimize.Optimize(context.Background(), an, faults, optimize.Options{
			MaxSweeps: cfg.sweeps(),
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
		})
		if err != nil {
			return nil, nil, err
		}
		rows, err := SizeTable(c, opt.Probs)
		if err != nil {
			return nil, nil, err
		}
		out[c.Name] = rows
		tuples[c.Name] = opt.Probs
	}
	return out, tuples, nil
}

// ---------------------------------------------------------------------
// Table 6: fault coverage by simulation, uniform vs optimized.

// Table6Checkpoints mirrors the paper's pattern counts.
var Table6Checkpoints = []int{10, 100, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 11000, 12000}

// CurvePair holds the two coverage curves of one circuit.
type CurvePair struct {
	Circuit   string
	Uniform   []faultsim.CoveragePoint
	Optimized []faultsim.CoveragePoint
}

// Table6 fault-simulates 12000 uniform and 12000 optimized patterns for
// DIV and COMP (paper: uniform stalls near 77%/81%, optimized reaches
// 99.7%).
func Table6(cfg Config, tuples map[string][]float64) ([]*CurvePair, error) {
	checkpoints := Table6Checkpoints
	if cfg.Fast {
		checkpoints = []int{10, 100, 1000, 2000}
	}
	var out []*CurvePair
	for _, c := range []*circuit.Circuit{div16(), comp24()} {
		tuple, ok := tuples[c.Name]
		if !ok {
			return nil, fmt.Errorf("experiments: no optimized tuple for %s", c.Name)
		}
		genU := pattern.NewUniform(len(c.Inputs), cfg.Seed+3)
		genO, err := pattern.NewWeighted(tuple, cfg.Seed+4)
		if err != nil {
			return nil, err
		}
		plan := simPlanFor(c)
		opt := faultsim.Options{Workers: cfg.Workers}
		pair := &CurvePair{Circuit: c.Name}
		if pair.Uniform, err = plan.CoverageCurve(context.Background(), genU, checkpoints, opt, nil); err != nil {
			return nil, err
		}
		if pair.Optimized, err = plan.CoverageCurve(context.Background(), genO, checkpoints, opt, nil); err != nil {
			return nil, err
		}
		out = append(out, pair)
	}
	return out, nil
}

// RenderTable6 formats the coverage table like the paper's Table 6.
func RenderTable6(pairs []*CurvePair) string {
	var sb strings.Builder
	sb.WriteString("Table 6: fault coverage (%) by simulation of random patterns (paper: DIV 77.2/99.7, COMP 80.7/99.7 at 12000)\n")
	fmt.Fprintf(&sb, "%9s", "patterns")
	for _, p := range pairs {
		fmt.Fprintf(&sb, " %10s %10s", p.Circuit+" uni", p.Circuit+" opt")
	}
	sb.WriteByte('\n')
	if len(pairs) == 0 {
		return sb.String()
	}
	for i := range pairs[0].Uniform {
		fmt.Fprintf(&sb, "%9d", pairs[0].Uniform[i].Patterns)
		for _, p := range pairs {
			fmt.Fprintf(&sb, " %10.1f %10.1f", p.Uniform[i].Coverage, p.Optimized[i].Coverage)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Tables 7 and 8: scaling of analysis and optimization effort.

// ScaleRow is one row of Tables 7/8.
type ScaleRow struct {
	Circuit     string
	Transistors int
	Inputs      int
	N           int64 // estimated test-set size (d=1, e=0.95)
	NOpt        int64 // after optimization (Table 8)
	Analysis    time.Duration
	Optimize    time.Duration
}

// scalingCircuits returns the size ladder standing in for the paper's
// 368..47836-transistor circuits.  Scaled multiplier datapaths keep the
// ladder fully testable (random circuits would contribute redundant
// faults with no finite test length).
func scalingCircuits(cfg Config) []*circuit.Circuit {
	ladder := []*circuit.Circuit{
		adder8(),   // ~0.3k transistors
		alu74181(), // ~0.4k
		mult8(),    // ~3k
		mult16(),   // ~13k
		mult28(),   // ~40k
	}
	if cfg.Fast {
		return ladder[:3]
	}
	return ladder
}

// Table7 measures analysis wall time and the estimated uniform-pattern
// test-set size across the size ladder.
func Table7(cfg Config) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, c := range scalingCircuits(cfg) {
		faults := faultsFor(c)
		start := time.Now()
		res, err := core.Analyze(c, core.UniformProbs(c), core.DefaultParams())
		if err != nil {
			return nil, err
		}
		probs := res.DetectProbs(faults)
		elapsed := time.Since(start)
		n, err := testlen.Required(probs, 0.95)
		if err != nil {
			n = -1 // some random circuits contain undetectable faults
		}
		rows = append(rows, ScaleRow{
			Circuit:     c.Name,
			Transistors: c.Transistors(),
			Inputs:      len(c.Inputs),
			N:           n,
			Analysis:    elapsed,
		})
	}
	return rows, nil
}

// RenderTable7 formats the scaling table.
func RenderTable7(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Table 7: CPU time for the analysis (paper: 0.4s at 368 transistors .. 41s at 47836, SIEMENS 7561 ~2.4 MIPS)\n")
	fmt.Fprintf(&sb, "%-22s %12s %8s %14s %12s\n", "circuit", "transistors", "inputs", "est. test set", "time")
	for _, r := range rows {
		n := fmt.Sprintf("%d", r.N)
		if r.N < 0 {
			n = "unreachable"
		}
		fmt.Fprintf(&sb, "%-22s %12d %8d %14s %12s\n", r.Circuit, r.Transistors, r.Inputs, n, r.Analysis.Round(time.Microsecond))
	}
	return sb.String()
}

// Table8 measures optimization wall time across the ladder.
func Table8(cfg Config) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, c := range scalingCircuits(cfg) {
		an, err := programFor(c, core.FastParams())
		if err != nil {
			return nil, err
		}
		faults := faultsFor(c)
		sweeps := 2
		if cfg.Fast {
			sweeps = 1
		}
		start := time.Now()
		opt, err := optimize.Optimize(context.Background(), an, faults, optimize.Options{MaxSweeps: sweeps, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		res, err := an.Run(context.Background(), opt.Probs)
		if err != nil {
			return nil, err
		}
		n, err := testlen.Required(res.DetectProbs(faults), 0.95)
		if err != nil {
			n = -1
		}
		rows = append(rows, ScaleRow{
			Circuit:     c.Name,
			Transistors: c.Transistors(),
			Inputs:      len(c.Inputs),
			NOpt:        n,
			Optimize:    elapsed,
		})
	}
	return rows, nil
}

// RenderTable8 formats the optimization scaling table.
func RenderTable8(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Table 8: CPU time for the optimization (paper: 6.4s at 368 transistors .. 2181s at 26450)\n")
	fmt.Fprintf(&sb, "%-22s %12s %8s %14s %12s\n", "circuit", "transistors", "inputs", "opt. test set", "time")
	for _, r := range rows {
		n := fmt.Sprintf("%d", r.NOpt)
		if r.NOpt < 0 {
			n = "unreachable"
		}
		fmt.Fprintf(&sb, "%-22s %12d %8d %14s %12s\n", r.Circuit, r.Transistors, r.Inputs, n, r.Optimize.Round(time.Microsecond))
	}
	return sb.String()
}
