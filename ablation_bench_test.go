package protest

// Ablation benchmarks for the design choices DESIGN.md calls out: how
// much accuracy the joining-point conditioning buys at which cost
// (MAXVERS/MAXLIST), and what the observability-model and local-diff
// alternatives change.  Each benchmark reports accuracy metadata via
// b.ReportMetric next to the usual time/op.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/stats"
)

// aluExact caches the exact ALU detection probabilities.
var aluExact []float64

func aluExactProbs(b *testing.B) []float64 {
	if aluExact == nil {
		c := circuits.ALU74181()
		faults := fault.Collapse(c)
		exact, err := core.ExactDetectProbs(c, faults, core.UniformProbs(c))
		if err != nil {
			b.Fatal(err)
		}
		aluExact = exact
	}
	return aluExact
}

// BenchmarkAblationMaxVers sweeps the number of conditioned joining
// points: MAXVERS=0 is the pure independence model.
func BenchmarkAblationMaxVers(b *testing.B) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	probs := core.UniformProbs(c)
	for _, mv := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("maxvers=%d", mv), func(b *testing.B) {
			params := core.DefaultParams()
			params.MaxVers = mv
			if mv == 0 {
				params.MaxCandidates = 0
			}
			prog, err := core.NewProgram(c, params)
			if err != nil {
				b.Fatal(err)
			}
			an := prog.NewEvaluator()
			var res *core.Analysis
			for i := 0; i < b.N; i++ {
				res, err = an.Run(context.Background(), probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			exact := aluExactProbs(b)
			sum := stats.Summarize(res.DetectProbs(faults), exact)
			b.ReportMetric(sum.AvgErr, "avgErr")
			b.ReportMetric(sum.Corr, "corr")
		})
	}
}

// BenchmarkAblationMaxList sweeps the joining-point search depth.
func BenchmarkAblationMaxList(b *testing.B) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	probs := core.UniformProbs(c)
	for _, ml := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("maxlist=%d", ml), func(b *testing.B) {
			params := core.DefaultParams()
			params.MaxList = ml
			prog, err := core.NewProgram(c, params)
			if err != nil {
				b.Fatal(err)
			}
			an := prog.NewEvaluator()
			var res *core.Analysis
			for i := 0; i < b.N; i++ {
				res, err = an.Run(context.Background(), probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			exact := aluExactProbs(b)
			sum := stats.Summarize(res.DetectProbs(faults), exact)
			b.ReportMetric(sum.AvgErr, "avgErr")
			b.ReportMetric(sum.Corr, "corr")
		})
	}
}

// BenchmarkAblationObsModel compares the ⊞ fanout-stem model with the
// 1-Π(1-s) alternative the paper offers for many-output circuits.
func BenchmarkAblationObsModel(b *testing.B) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	probs := core.UniformProbs(c)
	for _, m := range []struct {
		name  string
		model core.ObsModel
	}{{"xortree", core.ObsXorTree}, {"or", core.ObsOr}} {
		b.Run(m.name, func(b *testing.B) {
			params := core.DefaultParams()
			params.ObsModel = m.model
			prog, err := core.NewProgram(c, params)
			if err != nil {
				b.Fatal(err)
			}
			an := prog.NewEvaluator()
			var res *core.Analysis
			for i := 0; i < b.N; i++ {
				res, err = an.Run(context.Background(), probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			exact := aluExactProbs(b)
			sum := stats.Summarize(res.DetectProbs(faults), exact)
			b.ReportMetric(sum.AvgErr, "avgErr")
			b.ReportMetric(sum.Corr, "corr")
			b.ReportMetric(sum.Bias, "bias")
		})
	}
}

// BenchmarkAblationLocalDiff compares the exact boolean-difference pin
// sensitization against the paper's f(..0..) ⊞ f(..1..) approximation.
func BenchmarkAblationLocalDiff(b *testing.B) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	probs := core.UniformProbs(c)
	for _, m := range []struct {
		name  string
		paper bool
	}{{"exact", false}, {"paper", true}} {
		b.Run(m.name, func(b *testing.B) {
			params := core.DefaultParams()
			params.PaperLocalDiff = m.paper
			prog, err := core.NewProgram(c, params)
			if err != nil {
				b.Fatal(err)
			}
			an := prog.NewEvaluator()
			var res *core.Analysis
			for i := 0; i < b.N; i++ {
				res, err = an.Run(context.Background(), probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			exact := aluExactProbs(b)
			sum := stats.Summarize(res.DetectProbs(faults), exact)
			b.ReportMetric(sum.AvgErr, "avgErr")
			b.ReportMetric(sum.Corr, "corr")
		})
	}
}

// BenchmarkAblationSignalAccuracy reports the signal-probability error
// (not detection) of the estimator against exact enumeration on the
// ALU, isolating the forward pass from the observability model.
func BenchmarkAblationSignalAccuracy(b *testing.B) {
	c := circuits.ALU74181()
	probs := core.UniformProbs(c)
	exact, err := core.ExactProbs(c, probs)
	if err != nil {
		b.Fatal(err)
	}
	for _, mv := range []int{0, 4} {
		b.Run(fmt.Sprintf("maxvers=%d", mv), func(b *testing.B) {
			params := core.DefaultParams()
			params.MaxVers = mv
			if mv == 0 {
				params.MaxCandidates = 0
			}
			prog, err := core.NewProgram(c, params)
			if err != nil {
				b.Fatal(err)
			}
			an := prog.NewEvaluator()
			var res *core.Analysis
			for i := 0; i < b.N; i++ {
				res, err = an.Run(context.Background(), probs)
				if err != nil {
					b.Fatal(err)
				}
			}
			maxErr, avg := 0.0, 0.0
			for id := range exact {
				d := math.Abs(res.Prob[id] - exact[id])
				avg += d
				if d > maxErr {
					maxErr = d
				}
			}
			b.ReportMetric(avg/float64(len(exact)), "avgErr")
			b.ReportMetric(maxErr, "maxErr")
		})
	}
}
