package protest

// One benchmark per table and figure of the paper's evaluation.  The
// benchmarks time the regeneration of each artifact; run
//
//	go test -bench=. -benchmem
//
// and see cmd/protest-experiments for the rendered tables themselves.
// Reduced budgets (Config.Fast) keep the timed body representative
// without requiring minutes per iteration.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/experiments"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/optimize"
	"protest/internal/pattern"
	"protest/internal/testlen"
)

var benchCfg = experiments.Config{Seed: 1, Fast: true}

// BenchmarkTable1Validity measures the estimated-vs-simulated
// comparison for the ALU (Table 1, first row).
func BenchmarkTable1Validity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Validity(circuits.ALU74181(), benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5ScatterALU regenerates the ALU correlation diagram.
func BenchmarkFigure5ScatterALU(b *testing.B) {
	r, err := experiments.Validity(circuits.ALU74181(), benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Scatter(); len(s) == 0 {
			b.Fatal("empty scatter")
		}
	}
}

// BenchmarkFigure6ScatterMULT regenerates the MULT correlation diagram
// including the underlying measurement.
func BenchmarkFigure6ScatterMULT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Validity(circuits.Mult8(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if s := r.Scatter(); len(s) == 0 {
			b.Fatal("empty scatter")
		}
	}
}

// BenchmarkTable2TestSetSize computes the ALU/MULT test lengths.
func BenchmarkTable2TestSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Validation fault-simulates the computed ALU test set
// (the "99.9-100% coverage" claim of section 5).
func BenchmarkTable2Validation(b *testing.B) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	res, err := core.Analyze(c, core.UniformProbs(c), core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	n, err := testlen.RequiredFraction(res.DetectProbs(faults), 0.98, 0.98)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := pattern.NewUniform(len(c.Inputs), uint64(i))
		if _, err := faultsim.NewPlan(c, faults).CoverageCurve(context.Background(), gen, []int{int(n)}, faultsim.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3HardCircuits computes the DIV/COMP uniform test
// lengths.
func BenchmarkTable3HardCircuits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4OptimizedProbs runs the COMP input-probability
// optimization (reduced sweep budget).
func BenchmarkTable4OptimizedProbs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5OptimizedTestSets optimizes DIV and COMP and
// recomputes the size grid.
func BenchmarkTable5OptimizedTestSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6CoverageCurves fault-simulates uniform vs optimized
// pattern sets on DIV and COMP.
func BenchmarkTable6CoverageCurves(b *testing.B) {
	_, tuples, err := experiments.Table5(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchCfg, tuples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7AnalysisScaling times the analysis across the circuit
// size ladder.
func BenchmarkTable7AnalysisScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8OptimizationScaling times the optimization across the
// ladder.
func BenchmarkTable8OptimizationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks: the building blocks the tables rest
// on, useful for tracking performance regressions.

func BenchmarkAnalyzeALU(b *testing.B) {
	c := circuits.ALU74181()
	prog, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	an := prog.NewEvaluator()
	probs := core.UniformProbs(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(context.Background(), probs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeMULT(b *testing.B) {
	c := circuits.Mult8()
	prog, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	an := prog.NewEvaluator()
	probs := core.UniformProbs(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(context.Background(), probs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeDIV(b *testing.B) {
	c := circuits.Div16()
	prog, err := core.NewProgram(c, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	an := prog.NewEvaluator()
	probs := core.UniformProbs(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(context.Background(), probs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimMULT64Patterns times one 64-pattern block of the
// naive oracle engine (per-fault cone re-simulation).
func BenchmarkFaultSimMULT64Patterns(b *testing.B) {
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	sim := faultsim.New(c)
	gen := pattern.NewUniform(len(c.Inputs), 1)
	words := make([]uint64, len(c.Inputs))
	det := make([]uint64, len(faults))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlock(words)
		sim.SimulateBlock(words, faults, det)
	}
}

// BenchmarkFaultSimFFRMULT64Patterns is the same block on the FFR
// engine: critical path tracing + dominator-cut stem propagation
// (bit-identical detection words; see internal/faultsim), timed the way
// a 64-pattern measurement runs it, as one chunk with one valid lane.
func BenchmarkFaultSimFFRMULT64Patterns(b *testing.B) {
	benchFFRChunk(b, 1)
}

// BenchmarkFaultSimFFRMULT512PatternsWide times one full chunk of the
// mult8 FFR engine: 512 patterns (eight 64-pattern blocks) per op.
func BenchmarkFaultSimFFRMULT512PatternsWide(b *testing.B) {
	b.Run("w8", func(b *testing.B) { benchFFRChunk(b, faultsim.ChunkBlocks) })
}

// benchFFRChunk times one chunk of k valid blocks per op on the mult8
// FFR engine.
func benchFFRChunk(b *testing.B, k int) {
	const w = faultsim.ChunkBlocks
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	engine := faultsim.NewPlan(c, faults).AcquireEngine()
	defer engine.Release()
	gen := pattern.NewUniform(len(c.Inputs), 1)
	words := make([]uint64, len(c.Inputs)*w)
	det := make([]uint64, len(faults)*w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlocks(words, w, k)
		engine.SimulateChunk(words, det, nil)
	}
}

func BenchmarkTestLengthCOMP(b *testing.B) {
	c := circuits.Comp24()
	faults := fault.Collapse(c)
	res, err := core.Analyze(c, core.UniformProbs(c), core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	probs := res.DetectProbs(faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testlen.Required(probs, 0.98); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeEq8Style(b *testing.B) {
	c := circuits.Comp24()
	prog, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Optimize(context.Background(), prog, faults, optimize.Options{MaxSweeps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeParallel is the same climb with the candidate moves
// of each coordinate scored on one worker per core (identical result,
// see optimize.Options.Workers).  On a single-core machine it
// degenerates to the serial path; the interesting comparison against
// BenchmarkOptimizeEq8Style needs GOMAXPROCS > 1.
func BenchmarkOptimizeParallel(b *testing.B) {
	c := circuits.Comp24()
	prog, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Collapse(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Optimize(context.Background(), prog, faults, optimize.Options{MaxSweeps: 1, Workers: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeIncrementalCOMP measures the optimizer's steady-state
// evaluation unit: one single-input incremental update of a COMP
// analysis plus the detection-probability fold.  It must report
// 0 allocs/op — the hot path reuses caller buffers end to end.
func BenchmarkAnalyzeIncrementalCOMP(b *testing.B) {
	c := circuits.Comp24()
	prog, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		b.Fatal(err)
	}
	an := prog.NewEvaluator()
	faults := fault.Collapse(c)
	probs := core.UniformProbs(c)
	res := an.NewAnalysis()
	if err := an.RunInto(res, probs); err != nil {
		b.Fatal(err)
	}
	// Prime the lazily built incremental regions.
	probs[0] = 0.5625
	if err := an.Update(res, []int{0}, probs); err != nil {
		b.Fatal(err)
	}
	detect := make([]float64, len(faults))
	steps := [2]float64{0.4375, 0.5625}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := i % len(probs)
		probs[in] = steps[i%2]
		if err := an.Update(res, []int{in}, probs); err != nil {
			b.Fatal(err)
		}
		res.DetectProbsInto(detect, faults)
	}
}

func BenchmarkWeightedPatternBlock(b *testing.B) {
	gen, err := pattern.NewWeighted([]float64{0.88, 0.94, 0.12, 0.5, 0.63, 0.31, 0.75, 0.06}, 1)
	if err != nil {
		b.Fatal(err)
	}
	words := make([]uint64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlock(words)
	}
}

// BenchmarkSessionThroughput measures sustained mixed-phase throughput
// against ONE shared Session: each op is one weighted analysis plus a
// 256-pattern fault simulation, and the sub-benchmarks drive the same
// Session from 1, 4 and 8 goroutines.  Before the immutable-program /
// scratch-state split the Session serialized every call behind a
// mutex, pinning ns/op at the 1-goroutine value regardless of cores;
// with pooled evaluators and engines the 8-goroutine ns/op should
// shrink toward 1/min(8, cores) of it (ops/sec scale with cores).
func BenchmarkSessionThroughput(b *testing.B) {
	c, ok := Benchmark("alu")
	if !ok {
		b.Fatal("alu benchmark missing")
	}
	s, err := Open(c)
	if err != nil {
		b.Fatal(err)
	}
	tuple := make([]float64, len(c.Inputs))
	for i := range tuple {
		tuple[i] = float64(1+i%14) / 16
	}
	ctx := context.Background()
	op := func() error {
		if _, err := s.Analyze(ctx, tuple); err != nil {
			return err
		}
		_, err := s.Simulate(ctx, 256)
		return err
	}
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var next atomic.Int64
			next.Store(-1)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) < int64(b.N) {
						if err := op(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
