package faultsim

import (
	"context"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// parallelWorkers resolves an Options.Workers value: <= 1 is serial
// (1), negative selects GOMAXPROCS, and anything above GOMAXPROCS is
// clamped to it.  The goroutines are CPU-bound with no blocking between
// blocks, so running more of them than cores cannot help and the bench
// trail shows oversubscription actively hurting on small machines; the
// block distribution (and therefore every result) is identical either
// way.
func parallelWorkers(workers, nFaults int) int {
	if maxProcs := runtime.GOMAXPROCS(0); workers < 0 || workers > maxProcs {
		workers = maxProcs
	}
	if workers <= 1 || nFaults == 0 {
		return 1
	}
	return workers
}

// MeasureDetectionParallel is MeasureDetection with the per-block work
// spread over worker goroutines.  workers <= 0 selects GOMAXPROCS.
func MeasureDetectionParallel(c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, numPatterns, workers int) *Result {
	res, _ := MeasureDetectionParallelCtx(context.Background(), c, faults, gen, numPatterns, workers, nil)
	return res
}

// MeasureDetectionParallelCtx is the parallel measurement with the
// cancellation and progress treatment of the serial path.  The result
// is bit-identical to the serial version (same generator stream, same
// counts) for any worker count.  workers <= 0 selects GOMAXPROCS.
func MeasureDetectionParallelCtx(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, numPatterns, workers int, progress Progress) (*Result, error) {
	if workers <= 0 {
		workers = -1
	}
	return MeasureDetectionOpt(ctx, c, faults, gen, numPatterns, Options{Workers: workers}, progress)
}

// measureDetectionNaiveParallelCtx is the retained oracle parallel
// path: the good-circuit values of each block are computed once and
// shared read-only; every worker re-simulates the cones of a disjoint
// fault chunk.
func measureDetectionNaiveParallelCtx(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, numPatterns, workers int, progress Progress) (*Result, error) {
	workers = parallelWorkers(workers, len(faults))
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return measureDetectionNaiveCtx(ctx, c, faults, gen, numPatterns, progress)
	}
	good := bitsim.New(c)
	sims := make([]*Simulator, workers)
	for i := range sims {
		sims[i] = New(c)
	}
	res := &Result{
		Faults:   faults,
		Detected: make([]int, len(faults)),
	}
	words := make([]uint64, len(c.Inputs))
	chunk := (len(faults) + workers - 1) / workers
	var wg sync.WaitGroup
	for applied := 0; applied < numPatterns; applied += 64 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen.NextBlock(words)
		if err := good.SetInputs(words); err != nil {
			panic(err) // words sized from c.Inputs above
		}
		good.Run()
		goodVals := good.Values()
		mask := blockMask(numPatterns - applied)
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(faults))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(sim *Simulator, lo, hi int) {
				defer wg.Done()
				for fi := lo; fi < hi; fi++ {
					d := sim.simulateFault(goodVals, faults[fi])
					res.Detected[fi] += bits.OnesCount64(d & mask)
				}
			}(sims[w], lo, hi)
		}
		wg.Wait()
		if progress != nil {
			progress(min(applied+64, numPatterns), numPatterns)
		}
	}
	res.Applied = numPatterns
	return res, nil
}

// CoverageCurveParallel is CoverageCurve with the per-block work spread
// over worker goroutines.
func CoverageCurveParallel(c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, checkpoints []int, workers int) []CoveragePoint {
	out, _ := CoverageCurveParallelCtx(context.Background(), c, faults, gen, checkpoints, workers, nil)
	return out
}

// CoverageCurveParallelCtx fault-simulates with fault dropping like
// CoverageCurveCtx; the per-fault detection words do not depend on the
// partitioning and dropping is folded serially in block order, so the
// curve is identical to the serial one for any worker count.
// workers <= 0 selects GOMAXPROCS.
func CoverageCurveParallelCtx(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, checkpoints []int, workers int, progress Progress) ([]CoveragePoint, error) {
	if workers <= 0 {
		workers = -1
	}
	return CoverageCurveOpt(ctx, c, faults, gen, checkpoints, Options{Workers: workers}, progress)
}

// coverageCurveNaiveParallelCtx is the retained oracle parallel path:
// workers re-simulate the cones of disjoint chunks of the live fault
// list within each block.
func coverageCurveNaiveParallelCtx(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, checkpoints []int, workers int, progress Progress) ([]CoveragePoint, error) {
	workers = parallelWorkers(workers, len(faults))
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return coverageCurveNaiveCtx(ctx, c, faults, gen, checkpoints, progress)
	}
	cps := append([]int(nil), checkpoints...)
	sort.Ints(cps)
	good := bitsim.New(c)
	sims := make([]*Simulator, workers)
	for i := range sims {
		sims[i] = New(c)
	}
	alive := append([]fault.Fault(nil), faults...)
	det := make([]uint64, len(alive))
	words := make([]uint64, len(c.Inputs))
	total := len(faults)
	lastCp := 0
	if len(cps) > 0 {
		lastCp = cps[len(cps)-1]
	}
	dead := 0
	var out []CoveragePoint
	applied := 0
	var wg sync.WaitGroup
	for _, cp := range cps {
		for applied < cp && len(alive) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			gen.NextBlock(words)
			valid := cp - applied
			mask := blockMask(valid)
			applied += min(64, valid)
			if progress != nil {
				progress(applied, lastCp)
			}
			if err := good.SetInputs(words); err != nil {
				panic(err) // words sized from c.Inputs above
			}
			good.Run()
			goodVals := good.Values()
			chunk := (len(alive) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := min(lo+chunk, len(alive))
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(sim *Simulator, lo, hi int) {
					defer wg.Done()
					for fi := lo; fi < hi; fi++ {
						det[fi] = sim.simulateFault(goodVals, alive[fi])
					}
				}(sims[w], lo, hi)
			}
			wg.Wait()
			// Drop detected faults (serially, as in the serial curve).
			w := 0
			for i := range alive {
				if det[i]&mask != 0 {
					dead++
					continue
				}
				alive[w] = alive[i]
				w++
			}
			alive = alive[:w]
		}
		out = append(out, CoveragePoint{Patterns: cp, Coverage: 100 * float64(dead) / float64(total)})
	}
	if progress != nil && applied < lastCp {
		progress(lastCp, lastCp) // every fault dropped early
	}
	return out, nil
}
