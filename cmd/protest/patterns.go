package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"protest"
)

func runGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	pSpec := fs.String("p", "0.5", "input signal probabilities")
	pFile := fs.String("pfile", "", "read per-input probabilities from `file`")
	count := fs.Int("count", 100, "number of patterns")
	seed := fs.Uint64("seed", 1, "generator seed")
	grid := fs.Int("grid", 0, "quantize probabilities to k/grid before generating (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := cf.load()
	if err != nil {
		return err
	}
	probs, err := loadProbs(*pSpec, *pFile, c)
	if err != nil {
		return err
	}
	if *grid > 1 {
		probs = protest.QuantizeProbs(probs, *grid)
	}
	gen, err := protest.NewWeightedGenerator(probs, *seed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# circuit %s: %d patterns, input order:", c.Name, *count)
	for _, id := range c.Inputs {
		fmt.Fprintf(w, " %s", c.Node(id).Name)
	}
	fmt.Fprintln(w)
	words := make([]uint64, len(c.Inputs))
	emitted := 0
	for emitted < *count {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %d of %d patterns emitted", protest.ErrCanceled, emitted, *count)
		}
		gen.NextBlock(words)
		for b := 0; b < 64 && emitted < *count; b++ {
			for i := range words {
				if words[i]>>b&1 == 1 {
					w.WriteByte('1')
				} else {
					w.WriteByte('0')
				}
			}
			w.WriteByte('\n')
			emitted++
		}
	}
	return nil
}

func runFsim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fsim", flag.ExitOnError)
	cf := addCircuitFlags(fs)
	pSpec := fs.String("p", "0.5", "input signal probabilities for random patterns")
	pFile := fs.String("pfile", "", "read per-input probabilities from `file`")
	count := fs.Int("count", 10000, "number of random patterns")
	seed := fs.Uint64("seed", 1, "generator seed")
	workers := fs.Int("workers", 1, "run the FFR simulation on this many goroutines (-1 = all cores; the naive engine is serial; identical results)")
	engine := fs.String("engine", "ffr", "fault-simulation engine: ffr (FFR partition + dominator cut) or naive (per-fault cones; identical results)")
	curve := fs.String("curve", "", "comma list of checkpoints for a coverage curve (e.g. 10,100,1000)")
	psim := fs.Bool("psim", false, "report per-fault measured detection probabilities")
	workerAddrs := fs.String("workers-addrs", "", "comma-separated `protest serve -worker` addresses to shard the simulation across (identical results)")
	width := fs.Int("width", 0, "simulation width: 1 or 8 pattern blocks per sweep (0 = 8; identical results)")
	modelName := addFaultModelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := protest.ParseSimEngine(*engine)
	if err != nil {
		return err
	}
	model, err := protest.ParseFaultModel(*modelName)
	if err != nil {
		return err
	}
	opts := []protest.Option{protest.WithSeed(*seed), protest.WithWorkers(*workers), protest.WithSimEngine(eng), protest.WithSimWidth(*width), protest.WithFaultModel(model)}
	if *workerAddrs != "" {
		pool := protest.NewShardPool(protest.ShardPoolConfig{Workers: splitComma(*workerAddrs), Seed: *seed})
		defer pool.Close()
		opts = append(opts, protest.WithShardPool(pool))
	}
	s, err := cf.openSession(opts...)
	if err != nil {
		return err
	}
	c := s.Circuit()
	probs, err := loadProbs(*pSpec, *pFile, c)
	if err != nil {
		return err
	}
	faults := s.Faults()
	if *curve != "" {
		var cps []int
		for _, cs := range splitComma(*curve) {
			var v int
			if _, err := fmt.Sscanf(cs, "%d", &v); err != nil {
				return fmt.Errorf("bad checkpoint %q", cs)
			}
			cps = append(cps, v)
		}
		points, err := s.CoverageCurve(ctx, probs, cps)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %10s\n", "patterns", "coverage%")
		for _, pt := range points {
			fmt.Printf("%10d %10.1f\n", pt.Patterns, pt.Coverage)
		}
		return nil
	}
	res, err := s.SimulateWeighted(ctx, probs, *count)
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %d patterns, %d faults, coverage %.2f%%\n",
		c.Name, res.Applied, len(faults), 100*res.Coverage())
	if *psim {
		fmt.Printf("%-24s %12s %10s\n", "fault", "detections", "P_SIM")
		for i, f := range faults {
			fmt.Printf("%-24s %12d %10.5f\n", f.Name(c), res.Detected[i], res.PSim(i))
		}
	}
	return nil
}
