package main

import (
	"context"
	"flag"
	"fmt"

	"protest"
)

func runBist(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bist", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	pSpec := fs.String("p", "0.5", "PRPG input probabilities (0.5 = classic BILBO)")
	pFile := fs.String("pfile", "", "read per-input probabilities from `file`")
	cycles := fs.Int("cycles", 1024, "self-test cycles")
	misr := fs.Uint("misr", 16, "MISR width (4, 8, 16, 24, 32)")
	seed := fs.Uint64("seed", 1, "PRPG seed")
	engine := fs.String("engine", "ffr", "fault-simulation engine: ffr or naive (identical signatures)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := protest.ParseSimEngine(*engine)
	if err != nil {
		return err
	}
	s, err := cf.openSession(protest.WithSeed(*seed), protest.WithSimEngine(eng))
	if err != nil {
		return err
	}
	c := s.Circuit()
	probs, err := loadProbs(*pSpec, *pFile, c)
	if err != nil {
		return err
	}
	res, err := s.RunBISTWeighted(ctx, probs, protest.BISTPlan{
		Cycles:    *cycles,
		MISRWidth: *misr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("circuit:          %s\n", c.Name)
	fmt.Printf("cycles:           %d\n", res.Cycles)
	fmt.Printf("good signature:   %0*x (%d-bit MISR)\n", int(*misr+3)/4, res.GoodSignature, *misr)
	fmt.Printf("faults:           %d\n", res.Faults)
	fmt.Printf("signature-detected: %d (%.2f%%)\n", res.Detected, 100*res.Coverage())
	fmt.Printf("output-detected:  %d (before compaction)\n", res.OutputDetected)
	fmt.Printf("aliased:          %d\n", res.Aliased)
	return nil
}

func runExact(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	pSpec := fs.String("p", "0.5", "input signal probabilities")
	pFile := fs.String("pfile", "", "read per-input probabilities from `file`")
	budget := fs.Int("budget", 0, "BDD node budget (0 = one million)")
	nodes := fs.Bool("nodes", false, "print exact per-node signal probabilities")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := cf.openSession()
	if err != nil {
		return err
	}
	c := s.Circuit()
	probs, err := loadProbs(*pSpec, *pFile, c)
	if err != nil {
		return err
	}
	exact, err := protest.ExactProbsBDD(c, probs, *budget)
	if err != nil {
		return err
	}
	res, err := s.Analyze(ctx, probs)
	if err != nil {
		return err
	}
	if *nodes {
		fmt.Printf("%-20s %12s %12s %10s\n", "node", "exact", "estimated", "error")
		for _, id := range c.TopoOrder() {
			e := exact[id]
			p := res.Prob[id]
			fmt.Printf("%-20s %12.6f %12.6f %+10.6f\n", c.Node(id).Name, e, p, p-e)
		}
	}
	// Summary of estimator quality against the exact values.
	var avg, max float64
	for id := range exact {
		d := res.Prob[id] - exact[id]
		if d < 0 {
			d = -d
		}
		avg += d
		if d > max {
			max = d
		}
	}
	avg /= float64(len(exact))
	fmt.Printf("# %s: %d nodes, estimator vs BDD-exact: avg |err| %.5f, max |err| %.5f\n",
		c.Name, len(exact), avg, max)
	return nil
}
