package optimize

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/testlen"
)

// Multi-distribution optimization: the natural extension of section 6
// (and the direction Wunderlich's follow-up work took): when no single
// input-probability tuple serves all faults — e.g. a circuit with an
// AND-dominated and an OR-dominated region pulling the weights in
// opposite directions — the test is split into several weighted
// pattern *sessions*, each with its own tuple optimized for the faults
// the previous sessions leave poorly covered.

// MultiOptions controls multi-distribution optimization.
type MultiOptions struct {
	// Sets bounds the number of distributions (default 2).
	Sets int
	// SessionConfidence is the per-fault coverage a session must give a
	// fault for it to be considered served (default 0.95).
	SessionConfidence float64
	// PerSet are the single-set options applied to each round.
	PerSet Options
}

// MultiResult holds the optimized distributions.
type MultiResult struct {
	// Tuples are the per-session input probability tuples.
	Tuples [][]float64
	// SessionLengths are the per-session pattern counts such that the
	// faults assigned to each session reach SessionConfidence.
	SessionLengths []int64
	// Assigned[i] is the number of faults served by session i.
	Assigned []int
}

// TotalPatterns sums the session lengths.
func (r *MultiResult) TotalPatterns() int64 {
	var t int64
	for _, n := range r.SessionLengths {
		t += n
	}
	return t
}

// OptimizeMulti derives up to Sets distributions by gradient
// clustering: every fault's sensitivity to each input probability is
// measured by finite differences around the uniform tuple (one
// analysis per input), faults are grouped by the direction their
// detection probability wants the weights to move, and each group gets
// its own optimized tuple and session length.  ctx is threaded through
// the gradient clustering and each per-group climb.
func OptimizeMulti(ctx context.Context, prog *core.Program, faults []fault.Fault, opt MultiOptions) (*MultiResult, error) {
	if opt.Sets <= 0 {
		opt.Sets = 2
	}
	if opt.SessionConfidence <= 0 || opt.SessionConfidence >= 1 {
		opt.SessionConfidence = 0.95
	}
	res := &MultiResult{}
	clusters, err := clusterByGradient(ctx, prog, faults, opt.Sets, opt.PerSet.Workers)
	if err != nil {
		return nil, err
	}
	for _, group := range clusters {
		if len(group) == 0 {
			continue
		}
		single, err := Optimize(ctx, prog, group, opt.PerSet)
		if err != nil {
			return nil, err
		}
		run, err := prog.Run(ctx, single.Probs)
		if err != nil {
			return nil, err
		}
		probs := run.DetectProbs(group)
		n, err := testlen.Required(probs, opt.SessionConfidence)
		if err != nil {
			// Undetectable faults in the group: size the session for
			// the detectable part.
			var pos []float64
			for _, p := range probs {
				if p > 0 {
					pos = append(pos, p)
				}
			}
			if len(pos) == 0 {
				n = 0
			} else if n, err = testlen.Required(pos, opt.SessionConfidence); err != nil {
				return nil, err
			}
		}
		res.Tuples = append(res.Tuples, single.Probs)
		res.SessionLengths = append(res.SessionLengths, n)
		res.Assigned = append(res.Assigned, len(group))
	}
	if len(res.Tuples) == 0 {
		return nil, fmt.Errorf("optimize: no fault group could be served")
	}
	return res, nil
}

// clusterByGradient measures ∂P_f/∂p_i by finite differences at the
// uniform tuple and greedily clusters faults by gradient direction:
// the first seed is the hardest fault, each further seed is the fault
// most anti-aligned with the existing seeds, and every fault joins the
// seed with the largest dot product.  Each probe perturbs a single
// input, so the finite differences run through the incremental engine
// (one cone update per input instead of one full analysis); with
// workers > 1 the probes are scored concurrently on pooled evaluators.
func clusterByGradient(ctx context.Context, prog *core.Program, faults []fault.Fault, sets, workers int) ([][]fault.Fault, error) {
	c := prog.Circuit()
	nin := len(c.Inputs)
	uniform := core.UniformProbs(c)
	baseRun := prog.NewAnalysis()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	an := prog.Acquire()
	defer an.Release()
	if err := an.RunInto(baseRun, uniform); err != nil {
		return nil, err
	}
	base := baseRun.DetectProbs(faults)
	if sets == 1 || len(faults) < 2 {
		return [][]fault.Fault{append([]fault.Fault(nil), faults...)}, nil
	}
	const delta = 2.0 / 16
	grads := make([][]float64, len(faults))
	for i := range grads {
		grads[i] = make([]float64, nin)
	}
	probeInput := func(pa *core.Evaluator, work *core.Analysis, probe, det []float64, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		work.CopyFrom(baseRun)
		probe[i] = 0.5 + delta
		if err := pa.Update(work, []int{i}, probe); err != nil {
			return err
		}
		probe[i] = 0.5
		work.DetectProbsInto(det, faults)
		for fi := range faults {
			// Relative change keeps hard faults comparable to easy
			// ones.
			den := base[fi]
			if den < 1e-12 {
				den = 1e-12
			}
			grads[fi][i] = (det[fi] - base[fi]) / den
		}
		return nil
	}
	if workers > 1 {
		if workers > nin {
			workers = nin
		}
		var next atomic.Int64
		next.Store(-1)
		var firstErr atomic.Value
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			pa := an
			if w > 0 {
				pa = prog.Acquire()
			}
			go func(pa *core.Evaluator, release bool) {
				defer wg.Done()
				if release {
					defer pa.Release()
				}
				work := prog.NewAnalysis()
				probe := append([]float64(nil), uniform...)
				det := make([]float64, len(faults))
				for {
					i := int(next.Add(1))
					if i >= nin {
						return
					}
					if err := probeInput(pa, work, probe, det, i); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}(pa, w > 0)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			return nil, err
		}
	} else {
		work := prog.NewAnalysis()
		probe := append([]float64(nil), uniform...)
		det := make([]float64, len(faults))
		for i := 0; i < nin; i++ {
			if err := probeInput(an, work, probe, det, i); err != nil {
				return nil, err
			}
		}
	}
	// Seed selection.
	seedIdx := []int{hardest(base)}
	for len(seedIdx) < sets {
		worst, worstScore := -1, 1e300
		for fi := range faults {
			score := 0.0
			for _, s := range seedIdx {
				score += dot(grads[fi], grads[s])
			}
			if score < worstScore {
				worst, worstScore = fi, score
			}
		}
		if worst < 0 || containsInt(seedIdx, worst) {
			break
		}
		seedIdx = append(seedIdx, worst)
	}
	groups := make([][]fault.Fault, len(seedIdx))
	for fi, f := range faults {
		best, bestScore := 0, -1e300
		for k, s := range seedIdx {
			if score := dot(grads[fi], grads[s]); score > bestScore {
				best, bestScore = k, score
			}
		}
		groups[best] = append(groups[best], f)
	}
	return groups, nil
}

func hardest(probs []float64) int {
	best, bestP := 0, 2.0
	for i, p := range probs {
		if p < bestP {
			best, bestP = i, p
		}
	}
	return best
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := append([]float64(nil), v...)
	// Insertion-select the middle element (lists are small enough).
	k := len(cp) / 2
	for i := 0; i <= k; i++ {
		min := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[min] {
				min = j
			}
		}
		cp[i], cp[min] = cp[min], cp[i]
	}
	return cp[k]
}
