package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"protest"
)

func runOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	sweeps := fs.Int("sweeps", 16, "maximal coordinate sweeps")
	grid := fs.Int("grid", 16, "probability lattice denominator")
	nParam := fs.Float64("n", 0, "numerical parameter N of J_N (0 = auto)")
	restarts := fs.Int("restarts", 0, "random restarts")
	seed := fs.Uint64("seed", 1, "restart randomization seed")
	workers := fs.Int("workers", 1, "score candidate moves on this many goroutines (-1 = all cores; identical results)")
	verbose := fs.Bool("v", false, "log improvements")
	compare := fs.Bool("compare", true, "print test lengths before/after")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := cf.openSession(protest.WithSeed(*seed), protest.WithWorkers(*workers))
	if err != nil {
		return err
	}
	c := s.Circuit()
	opt := protest.OptimizeOptions{
		Grid:      *grid,
		N:         *nParam,
		MaxSweeps: *sweeps,
		Restarts:  *restarts,
		Seed:      *seed,
		Workers:   *workers,
	}
	if *verbose {
		opt.OnImprove = func(sweep, input int, obj float64) {
			fmt.Printf("# sweep %d input %d: log J = %.4f\n", sweep, input, obj)
		}
	}
	res, err := s.Optimize(ctx, opt)
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %d evaluations, %d sweeps, N=%.0f\n", c.Name, res.Evaluations, res.Sweeps, res.N)
	fmt.Printf("# log J: %.4f -> %.4f\n", res.InitialObjective, res.Objective)
	for i, id := range c.Inputs {
		fmt.Printf("%-8s %6.4f\n", c.Node(id).Name, res.Probs[i])
	}
	if *compare {
		faults := s.Faults()
		before, err := s.Analyze(ctx, nil)
		if err != nil {
			return err
		}
		after, err := s.Analyze(ctx, res.Probs)
		if err != nil {
			return err
		}
		for _, de := range [][2]float64{{1.0, 0.95}, {0.98, 0.98}} {
			nb, errB := protest.RequiredPatternsFraction(before.DetectProbs(faults), de[0], de[1])
			na, errA := protest.RequiredPatternsFraction(after.DetectProbs(faults), de[0], de[1])
			fmt.Printf("# d=%.2f e=%.3f: N(uniform)=%s N(optimized)=%s\n",
				de[0], de[1], fmtN(nb, errB), fmtN(na, errA))
		}
	}
	return nil
}

func fmtN(n int64, err error) string {
	if err != nil {
		return "unreachable"
	}
	return fmt.Sprintf("%d", n)
}

func runPipeline(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	fanout := fs.String("circuits", "", "comma list of built-in circuits to pipeline concurrently, one Session per circuit (exclusive with -f/-circuit)")
	d := fs.Float64("d", 1.0, "fault fraction d the test must cover")
	e := fs.Float64("e", 0.95, "confidence e")
	optimize := fs.Bool("optimize", true, "run the weighted-pattern optimization phase")
	sweeps := fs.Int("sweeps", 8, "maximal optimizer coordinate sweeps")
	grid := fs.Int("grid", 16, "weight quantization lattice denominator")
	sim := fs.Int("sim", 0, "fault-simulation budget per plan (0 = derive from test length)")
	maxSim := fs.Int("maxsim", 4096, "cap on the derived simulation budget")
	bistCycles := fs.Int("bist", 0, "also run a MISR self-test with this many cycles (0 = off, negative is an error)")
	misr := fs.Uint("misr", 16, "MISR width for -bist")
	seed := fs.Uint64("seed", 1, "pattern generator seed")
	workers := fs.Int("workers", 1, "run optimizer scoring and fault simulation on this many goroutines (-1 = all cores; identical results)")
	engine := fs.String("engine", "ffr", "fault-simulation engine: ffr or naive (identical results)")
	asJSON := fs.Bool("json", false, "emit the report as JSON (an array with -circuits)")
	quiet := fs.Bool("q", false, "suppress the progress ticker")
	modelName := addFaultModelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *d <= 0 || *d > 1 {
		return fmt.Errorf("pipeline: -d %v out of (0,1]", *d)
	}
	if *e <= 0 || *e >= 1 {
		return fmt.Errorf("pipeline: -e %v out of (0,1)", *e)
	}
	eng, err := protest.ParseSimEngine(*engine)
	if err != nil {
		return err
	}
	model, err := protest.ParseFaultModel(*modelName)
	if err != nil {
		return err
	}
	spec := protest.PipelineSpec{
		Fraction:        *d,
		Confidence:      *e,
		Optimize:        *optimize,
		OptimizeOptions: protest.OptimizeOptions{MaxSweeps: *sweeps},
		QuantizeGrid:    *grid,
		SimPatterns:     *sim,
		MaxSimPatterns:  *maxSim,
		FaultModel:      model,
	}
	if *bistCycles != 0 {
		spec.BIST = &protest.BISTPlan{Cycles: *bistCycles, MISRWidth: *misr}
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	opts := []protest.Option{protest.WithSeed(*seed), protest.WithWorkers(*workers), protest.WithSimEngine(eng)}

	if *fanout != "" {
		return runPipelineFanout(ctx, cf, *fanout, spec, opts, *asJSON, *quiet)
	}

	if !*quiet && !*asJSON {
		opts = append(opts, stderrProgress())
	}
	s, err := cf.openSession(opts...)
	if err != nil {
		return err
	}
	rep, err := s.Run(ctx, spec)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Print(rep.String())
	return nil
}

// runPipelineFanout runs the pipeline for several circuits at once:
// one Session and one goroutine per circuit, all sharing the artifact
// store (so repeated names — or other processes' equal circuits — pay
// for compiled plans once).  Reports print in the order the circuits
// were named, regardless of completion order.  The single-line \r
// ticker cannot multiplex concurrent Sessions, so progress here is one
// stderr line per completed circuit (suppressed by -q / -json).
func runPipelineFanout(ctx context.Context, cf *circuitFlags, list string, spec protest.PipelineSpec, opts []protest.Option, asJSON, quiet bool) error {
	if cf.file != "" || cf.builtin != "" {
		return fmt.Errorf("pipeline: -circuits is exclusive with -f/-circuit")
	}
	names := splitComma(list)
	sessions := make([]*protest.Session, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		names[i] = name
		c, ok := protest.Benchmark(name)
		if !ok {
			return fmt.Errorf("unknown built-in circuit %q (have: %s)", name, strings.Join(protest.BenchmarkNames(), ", "))
		}
		s, err := protest.Open(c, opts...)
		if err != nil {
			return err
		}
		sessions[i] = s
	}
	reports := make([]*protest.Report, len(names))
	errs := make([]error, len(names))
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = sessions[i].Run(ctx, spec)
			if !quiet && !asJSON {
				fmt.Fprintf(os.Stderr, "# %-8s done (%d/%d)\n", names[i], done.Add(1), len(names))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(rep.String())
	}
	return nil
}
