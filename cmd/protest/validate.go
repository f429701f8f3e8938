package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"protest"
)

// runValidate drives the three-oracle self-validation harness: the
// analytic estimator, BDD-exact probabilities and a ProbTest-sized
// Monte-Carlo run cross-check each other on one circuit or the whole
// registry, and any disagreement makes the command exit non-zero.
func runValidate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	sweep := fs.String("circuits", "", "comma list of built-in circuits, or 'all' for the whole registry (exclusive with -f/-circuit)")
	eps := fs.Float64("eps", 0.05, "family-wise error rate ε; also sizes the Monte-Carlo run ProbTest-style")
	pminFloor := fs.Float64("pmin-floor", 1e-4, "smallest outcome probability the 1-ε coverage guarantee extends to")
	minPat := fs.Int("min-patterns", 0, "lower clamp on the Monte-Carlo pattern count (0 = default 16384)")
	maxPat := fs.Int("max-patterns", 0, "upper clamp on the Monte-Carlo pattern count (0 = default 2^20); truncation is reported")
	budget := fs.Int("bdd-budget", 0, "BDD node budget for the exact oracle (0 = default 2^20); over-budget circuits are skipped with a reason")
	grossTol := fs.Float64("gross-tol", 0.5, "loose per-fault tolerance on the heuristic analytic chain")
	pSpec := fs.String("p", "", "input signal probabilities: one value or a comma list (default uniform)")
	seed := fs.Uint64("seed", 1, "Monte-Carlo generator seed (reports are deterministic per seed)")
	workers := fs.Int("workers", 1, "run the FFR Monte-Carlo simulation on this many goroutines (-1 = all cores; identical results)")
	workerAddrs := fs.String("workers-addrs", "", "comma-separated `protest serve -worker` addresses to shard the Monte-Carlo run across (identical results)")
	asJSON := fs.Bool("json", false, "emit the report as JSON (an array with -circuits)")
	quiet := fs.Bool("q", false, "suppress per-circuit progress on stderr")
	modelName := addFaultModelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, err := protest.ParseFaultModel(*modelName)
	if err != nil {
		return err
	}

	spec := protest.ValidateSpec{
		Epsilon:     *eps,
		PMinFloor:   *pminFloor,
		MinPatterns: *minPat,
		MaxPatterns: *maxPat,
		BDDBudget:   *budget,
		GrossTol:    *grossTol,
		FaultModel:  model,
	}

	var names []string
	switch {
	case *sweep != "" && (cf.file != "" || cf.builtin != ""):
		return fmt.Errorf("validate: -circuits is exclusive with -f/-circuit")
	case *sweep == "all":
		names = protest.BenchmarkNames()
	case *sweep != "":
		names = splitComma(*sweep)
	}

	opts := []protest.Option{protest.WithSeed(*seed), protest.WithWorkers(*workers)}
	if *workerAddrs != "" {
		pool := protest.NewShardPool(protest.ShardPoolConfig{Workers: splitComma(*workerAddrs), Seed: *seed})
		defer pool.Close()
		opts = append(opts, protest.WithShardPool(pool))
	}

	var sessions []*protest.Session
	if names == nil {
		s, err := cf.openSession(opts...)
		if err != nil {
			return err
		}
		names = []string{s.Circuit().Name}
		sessions = []*protest.Session{s}
	} else {
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
			sessions = append(sessions, s)
		}
	}

	// Sequential on purpose: a sweep is dominated by the big circuits'
	// Monte-Carlo runs, which already use every configured worker.
	reports := make([]*protest.ValidateReport, len(sessions))
	flagged := 0
	for i, s := range sessions {
		sp := spec
		if *pSpec != "" {
			probs, err := parseProbList(*pSpec, len(s.Circuit().Inputs))
			if err != nil {
				return fmt.Errorf("%s: %v", names[i], err)
			}
			sp.InputProbs = probs
		}
		rep, err := s.Validate(ctx, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		reports[i] = rep
		flagged += len(rep.Flags)
		if !*quiet && !*asJSON {
			fmt.Fprintf(os.Stderr, "# %-8s done (%d/%d)\n", names[i], i+1, len(sessions))
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(reports) == 1 && *sweep == "" {
			if err := enc.Encode(reports[0]); err != nil {
				return err
			}
		} else if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			printValidateReport(rep)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("validate: %d flagged fault check(s) across %d circuit(s)", flagged, len(reports))
	}
	return nil
}

func printValidateReport(rep *protest.ValidateReport) {
	oracle := "analytic+mc"
	if rep.HasExact {
		oracle = "analytic+bdd+mc"
	}
	fmt.Printf("%s: %d faults, %d patterns (required %d), oracles %s, %d checks\n",
		rep.Circuit, rep.Faults, rep.Patterns, rep.RequiredPatterns, oracle, rep.Checks)
	fmt.Printf("  analytic vs empirical: corr=%.3f avgErr=%.3f bias=%+.3f (envelope: %s)\n",
		rep.VsEmpirical.Corr, rep.VsEmpirical.AvgErr, rep.VsEmpirical.Bias, rep.EnvelopeSource)
	if rep.VsExact != nil {
		fmt.Printf("  analytic vs exact:     corr=%.3f avgErr=%.3f bias=%+.3f\n",
			rep.VsExact.Corr, rep.VsExact.AvgErr, rep.VsExact.Bias)
	}
	if rep.GuaranteeTruncated {
		fmt.Printf("  coverage guarantee truncated: achieved ε=%.3g for target %.3g\n",
			rep.AchievedEpsilon, rep.Epsilon)
	}
	for _, sk := range rep.Skips {
		fmt.Printf("  skip [%s]: %s\n", sk.Stage, sk.Reason)
	}
	for _, f := range rep.Flags {
		name := f.Fault
		if name == "" {
			name = "(aggregate)"
		}
		fmt.Printf("  FLAG [%s] %s: %s\n", f.Kind, name, f.Detail)
	}
	if len(rep.Flags) == 0 {
		fmt.Printf("  PASS\n")
	} else {
		fmt.Printf("  FAIL: %d flagged check(s)\n", len(rep.Flags))
	}
}
