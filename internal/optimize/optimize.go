// Package optimize implements PROTEST's input signal probability
// optimization (section 6 of the paper): hill climbing on the tuple
// X = (p_i | i ∈ I) to maximize
//
//	J_N(X) = Π_f (1 - (1 - P_f(X))^N),
//
// the estimated probability that N weighted random patterns detect the
// whole fault set.  N is only a numerical parameter; larger values push
// the optimizer to care about the hardest faults.
//
// Probabilities move on a k/Grid lattice (Table 4 of the paper uses
// sixteenths), matching what weighted pattern generators (the NLFSRs of
// [KuWu84]) can realize in hardware.
//
// The climb is the repository's hottest loop, so candidate moves are
// scored through core's incremental engine instead of full re-analyses:
// every evaluation copies the current accepted state (a memcopy into
// preallocated buffers) and calls Evaluator.Update with the 1–2 changed
// inputs, which re-evaluates only the affected cones and is
// bit-identical to a full run.  The climb runs over a shared immutable
// core.Program; every worker acquires a pooled core.Evaluator for its
// scratch and releases it when the climb ends.  With Options.Workers >
// 1 the candidate steps of one coordinate are scored concurrently;
// acceptance still follows the serial first-improvement order, so the
// result is identical for every worker count.
package optimize

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"protest/internal/circuit"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// Options controls the hill climbing.
type Options struct {
	// Grid is the probability lattice denominator.  Any value <= 1 is
	// the sentinel for "default": the climb needs a real lattice to
	// move on, so it uses the paper's 16.
	Grid int
	// N is the numerical pattern-count parameter of J_N.  When 0 it is
	// chosen automatically as ~0.7/p_min from the initial analysis, so
	// the objective stays sensitive at the hardest fault: a much larger
	// N saturates J_N at 1 and destroys the gradient, a much smaller N
	// ignores the hard tail.
	N float64
	// MaxSweeps bounds the number of full coordinate sweeps
	// (default 24; a first-improvement sweep typically moves each
	// input by one or two grid steps, so reaching a far-off optimum
	// like the paper's 0.88/0.94 tuple needs several sweeps).
	MaxSweeps int
	// Steps lists the lattice step sizes tried per coordinate
	// (default ±1, ±2, ±4 grid units).
	Steps []int
	// Params are the analysis parameters used inside the loop
	// (default core.FastParams()).
	Params *core.Params
	// Workers scores the candidate steps of one coordinate
	// concurrently on that many goroutines (each owning a cloned
	// analyzer).  The zero value is a sentinel: it evaluates serially
	// here, and when the climb runs through a Session it adopts the
	// Session's WithWorkers count instead.  1
	// always forces serial scoring; negative selects GOMAXPROCS, and
	// any request beyond GOMAXPROCS is clamped to it — oversubscribing
	// the scheduler only adds contention (a 1-CPU host ran the
	// parallel-climb benchmark 74% slower at 8 workers than serial
	// before the clamp).  The accepted moves — and therefore
	// Result.Probs and Result.Objective — are identical for every
	// worker count; only Result.Evaluations varies, because parallel
	// scoring cannot stop at the first improvement.
	Workers int
	// Restarts adds random restarts around the best tuple (default 0).
	Restarts int
	// Seed drives restart randomization.  Every value is a valid seed
	// (pattern.NewRNG treats 0 like any other), but the zero value
	// doubles as a sentinel when the climb runs through a Session:
	// Seed == 0 with SeedSet false adopts the Session seed.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen.  The zero Options value
	// keeps its documented "default to the Session seed" behavior; set
	// SeedSet to make an explicit Seed = 0 stick, so seed-0 runs are
	// reproducible instead of silently reseeded.
	SeedSet bool
	// OnImprove, when non-nil, is called after each improving move.
	OnImprove func(sweep int, input int, objective float64)
	// OnSweep, when non-nil, is called after each completed coordinate
	// sweep with the sweep count and the MaxSweeps bound.
	OnSweep func(done, max int)
}

func (o *Options) fill() {
	if o.Grid <= 1 {
		o.Grid = 16
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 24
	}
	if len(o.Steps) == 0 {
		o.Steps = []int{1, -1, 2, -2, 4, -4}
	}
	if o.Params == nil {
		p := core.FastParams()
		o.Params = &p
	}
	if maxProcs := runtime.GOMAXPROCS(0); o.Workers < 0 || o.Workers > maxProcs {
		o.Workers = maxProcs
	}
}

// Result of an optimization run.
type Result struct {
	// Probs is the optimized input probability tuple.
	Probs []float64
	// Objective is log J_N at Probs.
	Objective float64
	// InitialObjective is log J_N at the uniform start tuple.
	InitialObjective float64
	// Evaluations counts objective evaluations.  With Workers > 1 all
	// candidate steps of a coordinate are scored (no early stop), so
	// the count is higher than the serial one for the same climb.
	Evaluations int
	// Sweeps counts completed coordinate sweeps.
	Sweeps int
	// N is the numerical parameter actually used (after auto-scaling).
	N float64
}

// chooseN picks the J_N parameter from the detection probabilities of
// the starting tuple: roughly ln2 / p_min, clamped to [10, 10^8].
func chooseN(detect []float64) float64 {
	pMin := 1.0
	for _, p := range detect {
		if p > 0 && p < pMin {
			pMin = p
		}
	}
	n := 0.7 / pMin
	if n < 10 {
		n = 10
	}
	if n > 1e8 {
		n = 1e8
	}
	return n
}

// Objective evaluates log J_N for one tuple (exposed for tests and for
// reporting tables).  Safe for concurrent use: it runs on a pooled
// evaluator of the shared program.
func Objective(prog *core.Program, faults []fault.Fault, probs []float64, n float64) (float64, error) {
	res, err := prog.Run(context.Background(), probs)
	if err != nil {
		return 0, err
	}
	return logJN(res.DetectProbs(faults), n), nil
}

// logJN computes Σ log(1 - (1-p)^N) with the same numerics as the
// test-length package; undetectable faults contribute a large negative
// penalty rather than -inf so the climber still gets a gradient.
func logJN(detect []float64, n float64) float64 {
	const penalty = -1e3
	sum := 0.0
	for _, p := range detect {
		if p >= 1 {
			continue
		}
		if p <= 1e-300 {
			sum += penalty
			continue
		}
		miss := n * math.Log1p(-p)
		switch {
		case miss >= 0:
			sum += penalty
		case miss > -math.Ln2:
			sum += math.Log(-math.Expm1(miss))
		default:
			sum += math.Log1p(-math.Exp(miss))
		}
		if sum < penalty*1e6 {
			return sum
		}
	}
	return sum
}

// structuralPairs returns pairs of input positions that share an
// immediate fanout gate.  Coordinate ascent alone stalls on such pairs:
// e.g. for an XNOR(a,b) feeding an equality chain, P(XNOR=1) is
// invariant under moving a alone while b sits at 0.5, so the climber
// additionally tries moving structurally coupled inputs together.
func structuralPairs(c *circuit.Circuit) [][2]int {
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.IsInput {
			continue
		}
		var ins []int
		for _, f := range n.Fanin {
			if pos := c.InputIndex(f); pos >= 0 {
				ins = append(ins, pos)
			}
		}
		for i := 0; i < len(ins); i++ {
			for j := i + 1; j < len(ins); j++ {
				a, b := ins[i], ins[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				key := [2]int{a, b}
				if !seen[key] {
					seen[key] = true
					pairs = append(pairs, key)
				}
			}
		}
	}
	return pairs
}

// move is one candidate perturbation: up to two coordinates jump to
// new lattice positions.
type move struct {
	n   int
	idx [2]int
	k   [2]int
}

// evalState is one worker's private machinery: a pooled evaluator
// acquired from the shared program, a scratch Analysis, and the
// probability / detection buffers.  Everything is acquired once per
// climb and released at the end; steady-state evaluation does not
// allocate.
type evalState struct {
	an      *core.Evaluator
	work    *core.Analysis
	probs   []float64
	detect  []float64
	changed []int
}

// climber carries the shared state of one optimization run: the
// analysis of the current accepted tuple and the evaluator states.
type climber struct {
	ctx    context.Context
	faults []fault.Fault
	opt    *Options
	grid   float64
	res    *Result

	base       *core.Analysis // analysis at baseCoords, always in sync
	baseCoords []int
	baseProbs  []float64
	detect     []float64 // detection probabilities at base

	states []*evalState
	moves  []move    // candidate batch scratch
	objs   []float64 // candidate objective scratch
}

func newClimber(ctx context.Context, prog *core.Program, faults []fault.Fault, opt *Options, res *Result) *climber {
	nin := len(prog.Circuit().Inputs)
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	c := &climber{
		ctx:        ctx,
		faults:     faults,
		opt:        opt,
		grid:       float64(opt.Grid),
		res:        res,
		base:       prog.NewAnalysis(),
		baseCoords: make([]int, nin),
		baseProbs:  make([]float64, nin),
		detect:     make([]float64, len(faults)),
		states:     make([]*evalState, workers),
		moves:      make([]move, 0, 2*len(opt.Steps)),
		objs:       make([]float64, 0, 2*len(opt.Steps)),
	}
	for w := range c.states {
		c.states[w] = &evalState{
			an:      prog.Acquire(),
			work:    prog.NewAnalysis(),
			probs:   make([]float64, nin),
			detect:  make([]float64, len(faults)),
			changed: make([]int, 0, 4),
		}
	}
	return c
}

// release returns every worker's evaluator to the program pool.
func (c *climber) release() {
	for _, st := range c.states {
		st.an.Release()
	}
}

// start runs the initial full analysis at coords.
func (c *climber) start(coords []int) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	copy(c.baseCoords, coords)
	c.coordsToProbs(coords, c.baseProbs)
	if err := c.states[0].an.RunInto(c.base, c.baseProbs); err != nil {
		return err
	}
	c.base.DetectProbsInto(c.detect, c.faults)
	return nil
}

// gotoCoords moves base to coords through an incremental update (the
// update falls back to a full pass internally when many coordinates
// moved, e.g. on restarts).
func (c *climber) gotoCoords(coords []int) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	st := c.states[0]
	st.changed = st.changed[:0]
	for i, k := range coords {
		if k != c.baseCoords[i] {
			st.changed = append(st.changed, i)
			c.baseProbs[i] = float64(k) / c.grid
		}
	}
	if len(st.changed) == 0 {
		return nil
	}
	if err := st.an.Update(c.base, st.changed, c.baseProbs); err != nil {
		return err
	}
	copy(c.baseCoords, coords)
	c.base.DetectProbsInto(c.detect, c.faults)
	return nil
}

func (c *climber) coordsToProbs(coords []int, dst []float64) {
	for i, k := range coords {
		dst[i] = float64(k) / c.grid
	}
}

// baseObjective evaluates log J_N at the current accepted tuple
// without re-analyzing (base is always in sync).
func (c *climber) baseObjective() float64 {
	c.res.Evaluations++
	return logJN(c.detect, c.opt.N)
}

// evalOne scores one candidate move against the current base: copy the
// accepted analysis into the state's scratch, update the 1–2 changed
// cones, and fold the detection probabilities into log J_N.
func (c *climber) evalOne(st *evalState, mv move) (float64, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	st.work.CopyFrom(c.base)
	copy(st.probs, c.baseProbs)
	st.changed = st.changed[:0]
	for t := 0; t < mv.n; t++ {
		st.changed = append(st.changed, mv.idx[t])
		st.probs[mv.idx[t]] = float64(mv.k[t]) / c.grid
	}
	if err := st.an.Update(st.work, st.changed, st.probs); err != nil {
		return 0, err
	}
	return logJN(st.work.DetectProbsInto(st.detect, c.faults), c.opt.N), nil
}

// firstImprovement scores the moves in order and accepts the first one
// that beats best, committing it to base.  With one worker it stops at
// the accepted move; with several it scores the whole batch
// concurrently and then applies the same acceptance rule, so the
// outcome is identical for any worker count.  It returns the accepted
// move index (-1 if none) and the new best objective.
func (c *climber) firstImprovement(cur []int, best float64) (int, float64, error) {
	if len(c.moves) == 0 {
		return -1, best, nil
	}
	if len(c.states) == 1 || len(c.moves) == 1 {
		st := c.states[0]
		for mi, mv := range c.moves {
			obj, err := c.evalOne(st, mv)
			if err != nil {
				return -1, best, err
			}
			c.res.Evaluations++
			if obj > best+1e-12 {
				if err := c.commit(cur, mv); err != nil {
					return -1, best, err
				}
				return mi, obj, nil
			}
		}
		return -1, best, nil
	}

	// Parallel speculative waves: score the next `workers` moves
	// concurrently, then apply the serial acceptance rule to the wave.
	// Serial first-improvement usually accepts an early move, so
	// scoring the whole batch up front would waste most of the work;
	// waves keep the speculation bounded by the worker count while the
	// accepted move — the first improving one in move order — stays
	// identical for every worker count.
	if cap(c.objs) < len(c.moves) {
		c.objs = make([]float64, len(c.moves))
	}
	objs := c.objs[:len(c.moves)]
	for waveStart := 0; waveStart < len(c.moves); {
		waveEnd := waveStart + len(c.states)
		if waveEnd > len(c.moves) {
			waveEnd = len(c.moves)
		}
		var next atomic.Int64
		next.Store(int64(waveStart) - 1)
		var firstErr atomic.Value
		workers := waveEnd - waveStart
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *evalState) {
				defer wg.Done()
				for {
					mi := int(next.Add(1))
					if mi >= waveEnd {
						return
					}
					obj, err := c.evalOne(st, c.moves[mi])
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					objs[mi] = obj
				}
			}(c.states[w])
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			return -1, best, err
		}
		c.res.Evaluations += waveEnd - waveStart
		for mi := waveStart; mi < waveEnd; mi++ {
			if obj := objs[mi]; obj > best+1e-12 {
				if err := c.commit(cur, c.moves[mi]); err != nil {
					return -1, best, err
				}
				return mi, obj, nil
			}
		}
		waveStart = waveEnd
	}
	return -1, best, nil
}

// commit applies an accepted move to cur and to base.
func (c *climber) commit(cur []int, mv move) error {
	for t := 0; t < mv.n; t++ {
		cur[mv.idx[t]] = mv.k[t]
	}
	return c.gotoCoords(cur)
}

// Optimize runs first-improvement cyclic coordinate hill climbing from
// the uniform tuple p_i = 0.5, with structural pair moves when single
// moves stall.  It is safe to run any number of concurrent climbs over
// one shared Program; each climb only acquires pooled evaluators.
// Every objective evaluation checks ctx, so a cancelled context aborts
// the climb within one incremental evaluation and returns ctx.Err().
func Optimize(ctx context.Context, prog *core.Program, faults []fault.Fault, opt Options) (*Result, error) {
	opt.fill()
	c := prog.Circuit()
	nin := len(c.Inputs)
	if nin == 0 {
		return nil, fmt.Errorf("optimize: circuit has no inputs")
	}
	pairs := structuralPairs(c)

	// Start at the lattice point closest to 0.5.
	cur := make([]int, nin) // lattice coordinates, 1..Grid-1
	for i := range cur {
		cur[i] = opt.Grid / 2
	}
	res := &Result{}
	autoN := opt.N <= 0
	cl := newClimber(ctx, prog, faults, &opt, res)
	defer cl.release()
	if err := cl.start(cur); err != nil {
		return nil, err
	}
	// Auto-scale N to the hardest fault of the starting tuple.
	if autoN {
		opt.N = chooseN(cl.detect)
	}
	best := cl.baseObjective()
	res.InitialObjective = best

	inRange := func(k int) bool { return k >= 1 && k <= opt.Grid-1 }
	climb := func(cur []int, best float64) (float64, error) {
		for sweep := 0; sweep < opt.MaxSweeps; sweep++ {
			// Adaptive N: as the hardest fault improves, J_N saturates
			// and the gradient vanishes; re-scaling N to the current
			// hardest fault keeps the pressure on the tail.  The paper
			// calls N "only a numerical parameter"; this is its
			// natural schedule.  Base always holds the analysis of the
			// current tuple, so the rescaled objective is a fold over
			// its detection probabilities — no re-analysis.
			if autoN && sweep > 0 {
				// Track 0.7/p_min in both directions: as the hardest
				// fault improves, the old (larger) N saturates J at 1
				// and kills the gradient.
				if n := chooseN(cl.detect); n > opt.N*1.2 || n < opt.N/1.2 {
					opt.N = n
					best = cl.baseObjective() // objectives are N-relative
				}
			}
			improved := false
			for i := 0; i < nin; i++ {
				cl.moves = cl.moves[:0]
				for _, step := range opt.Steps {
					if k := cur[i] + step; inRange(k) {
						cl.moves = append(cl.moves, move{n: 1, idx: [2]int{i}, k: [2]int{k}})
					}
				}
				mi, obj, err := cl.firstImprovement(cur, best)
				if err != nil {
					return best, err
				}
				if mi >= 0 {
					best = obj
					improved = true
					if opt.OnImprove != nil {
						opt.OnImprove(sweep, i, best)
					}
				}
			}
			// Pair sweep: move structurally coupled inputs jointly
			// (same and opposite directions).  This runs every sweep —
			// on equality-style structures the coherent two-input
			// moves carry the climb long after single moves degenerate
			// into tiny oscillations.
			for _, pr := range pairs {
				i, j := pr[0], pr[1]
				cl.moves = cl.moves[:0]
				for _, step := range opt.Steps {
					for _, dir := range [2]int{step, -step} {
						ki, kj := cur[i]+step, cur[j]+dir
						if inRange(ki) && inRange(kj) {
							cl.moves = append(cl.moves, move{n: 2, idx: [2]int{i, j}, k: [2]int{ki, kj}})
						}
					}
				}
				mi, obj, err := cl.firstImprovement(cur, best)
				if err != nil {
					return best, err
				}
				if mi >= 0 {
					best = obj
					improved = true
					if opt.OnImprove != nil {
						opt.OnImprove(sweep, i, best)
					}
				}
			}
			res.Sweeps++
			if opt.OnSweep != nil {
				opt.OnSweep(res.Sweeps, opt.MaxSweeps)
			}
			if !improved {
				break
			}
		}
		return best, nil
	}

	best, err := climb(cur, best)
	if err != nil {
		return nil, err
	}
	bestCoords := append([]int(nil), cur...)

	// Optional random restarts: perturb the best tuple and re-climb.
	rng := pattern.NewRNG(opt.Seed)
	for r := 0; r < opt.Restarts; r++ {
		trial := append([]int(nil), bestCoords...)
		for i := range trial {
			if rng.Uint64()%4 == 0 {
				trial[i] = 1 + int(rng.Uint64()%uint64(opt.Grid-1))
			}
		}
		if err := cl.gotoCoords(trial); err != nil {
			return nil, err
		}
		obj := cl.baseObjective()
		obj, err = climb(trial, obj)
		if err != nil {
			return nil, err
		}
		if obj > best {
			best = obj
			bestCoords = append([]int(nil), trial...)
		}
	}

	res.N = opt.N
	res.Probs = make([]float64, nin)
	cl.coordsToProbs(bestCoords, res.Probs)
	res.Objective = best
	return res, nil
}
