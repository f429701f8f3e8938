// Package faultsim implements two bit-parallel fault simulators for
// the measurements the paper validates PROTEST against — P_SIM
// (section 4, Table 1) and fault-coverage-versus-pattern-count curves
// with fault dropping (section 6, Table 6):
//
//   - the FFR engine (Plan, WideEngine), the default: the collapsed
//     fault list is partitioned by fanout-free region, each chunk of W
//     64-pattern blocks (W = 1 or 8) runs one good simulation, one
//     backward critical-path trace per live region and one
//     dominator-bounded stem propagation per live stem, collapsing
//     per-fault work to one fused lane loop per fault.  The trace and
//     the propagation, with the composition of each stem's
//     observability, are compiled once per circuit into per-stem
//     instruction streams (widesim.Stems) that widesim's evaluation
//     loops run, and at W = 8 on AVX2 CPUs the counting pass runs an
//     assembly kernel (count8AVX2).  Each
//     measurement has one body over a stretch of its block schedule
//     (Schedule): DetectionCounts counts inside that loop, masked to
//     each block's valid patterns, and stores no detection words;
//     FirstDetections visits every block's words, because fault
//     dropping needs them, and CurveOf turns its first-detection
//     positions into a coverage curve.  MeasureDetection and
//     CoverageCurve run the bodies over the whole schedule, a shard
//     over its block range.  BIST capture (package bist) drives the
//     engine's capture mode itself;
//   - the naive engine (Simulator), kept as the independent oracle:
//     every fault is re-simulated individually inside its output cone,
//     serially, by MeasureDetectionNaive and CoverageCurveNaive.
//
// Both produce bit-identical detection words; the engine property
// tests enforce it.  EngineKind names the two for the callers that let
// a user choose.
package faultsim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
	"protest/internal/pattern"
)

// Progress receives (patterns applied, patterns requested) after each
// simulated block.  Nil callbacks are allowed everywhere one is taken.
// When fault dropping exhausts the fault list before the last
// checkpoint, the remaining blocks are skipped and one final
// progress(total, total) call is reported.
type Progress func(done, total int)

// EngineKind selects the fault-simulation engine.
type EngineKind int

const (
	// EngineFFR is the FFR-partitioned engine (default): critical path
	// tracing inside fanout-free regions plus dominator-cut stem
	// propagation.
	EngineFFR EngineKind = iota
	// EngineNaive re-simulates every fault's cone individually.  It is
	// the slower, structurally independent oracle the FFR engine is
	// validated against.
	EngineNaive
)

func (k EngineKind) String() string {
	switch k {
	case EngineFFR:
		return "ffr"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngine parses "ffr" or "naive".
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "", "ffr":
		return EngineFFR, nil
	case "naive":
		return EngineNaive, nil
	}
	return 0, fmt.Errorf("faultsim: unknown engine %q (want ffr or naive)", s)
}

// CheckEngine returns an error unless k is EngineFFR or EngineNaive.
func CheckEngine(k EngineKind) error {
	if k != EngineFFR && k != EngineNaive {
		return fmt.Errorf("faultsim: unknown engine %v (want ffr or naive)", k)
	}
	return nil
}

// Options tunes an FFR measurement run (Plan.MeasureDetection and
// Plan.CoverageCurve).  The zero value runs serially on the default
// width schedule.  The naive oracle takes no options: it is serial and
// has no wide path.
type Options struct {
	// Workers spreads the per-block work over goroutines; <= 1 is
	// serial, < 0 selects GOMAXPROCS.  Values above GOMAXPROCS are
	// clamped to it — oversubscribing cores only adds scheduling
	// overhead (the bench trail shows the optimizer *slowing* when
	// oversubscribed on one CPU), and the block distribution is
	// identical either way.  Results are identical for every worker
	// count.
	Workers int
	// Width is the simulation width in 64-pattern lanes.  0, the
	// default, runs every chunk at W=8.  1 or 8 forces that width;
	// any other value is an error.  Either way the last chunk of a
	// run is padded with empty lanes.  Results are bit-identical at
	// every width.
	Width int
}

// Simulator is the naive fault simulator: one cone re-simulation per
// fault per block.
type Simulator struct {
	c      *circuit.Circuit
	good   *bitsim.Simulator
	fvals  []uint64 // faulty values, one word per node
	dirty  []circuit.NodeID
	inCone []bool // scratch: nodes needing re-evaluation
	inbuf  [][]uint64
	// captureOut, when non-nil, receives the faulty output words of the
	// next propagate call.
	captureOut []uint64
}

// New creates a naive fault simulator.
func New(c *circuit.Circuit) *Simulator {
	return &Simulator{
		c:      c,
		good:   bitsim.New(c),
		fvals:  make([]uint64, c.NumNodes()),
		inCone: make([]bool, c.NumNodes()),
		inbuf:  make([][]uint64, 0, 8),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// SimulateBlock runs one block of 64 patterns (given as one word per
// primary input) against the good circuit and every fault in faults,
// and returns for each fault the word of patterns that detect it
// (bit b set = pattern b detects the fault at some primary output).
func (s *Simulator) SimulateBlock(inputWords []uint64, faults []fault.Fault, detect []uint64) {
	if err := s.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the block from the circuit
	}
	s.good.Run()
	goodVals := s.good.Values()
	for fi, f := range faults {
		detect[fi] = s.simulateFault(goodVals, f)
	}
}

// GoodOutputWords returns the good-circuit output words of the most
// recent SimulateBlock / SimulateFaultBlock call.
func (s *Simulator) GoodOutputWords(dst []uint64) {
	s.good.OutputWords(dst)
}

// SimulateFaultBlock simulates one block of 64 patterns against a
// single fault, fills outWords (one word per primary output) with the
// *faulty* output values, and returns the detecting-pattern word.  Used
// by response compaction (signature analysis), which needs the faulty
// responses themselves, not just the difference.
func (s *Simulator) SimulateFaultBlock(inputWords []uint64, f fault.Fault, outWords []uint64) uint64 {
	if err := s.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the block from the circuit
	}
	s.good.Run()
	goodVals := s.good.Values()
	s.captureOut = outWords
	det := s.simulateFault(goodVals, f)
	s.captureOut = nil
	if det == 0 {
		// No output difference: the faulty responses equal the good
		// ones (the capture in propagate only runs when the fault
		// activates, so fill explicitly).
		s.good.OutputWords(outWords)
	}
	return det
}

// simulateFault re-simulates the cone of one fault against the good
// values and returns the detecting pattern word.
func (s *Simulator) simulateFault(goodVals []uint64, f fault.Fault) uint64 {
	site := f.Site(s.c)
	var stuck uint64
	if f.StuckAt {
		stuck = ^uint64(0)
	}
	// Activation: patterns where the fault changes the site value,
	// intersected with the kind's condition word (every kind is a
	// conditional stuck-at; detectWords applies the same ones).
	act := goodVals[site] ^ stuck
	switch f.Kind {
	case fault.KindBridgeAND, fault.KindBridgeOR:
		act &^= goodVals[f.Aggressor] ^ stuck
	case fault.KindSlowRise, fault.KindSlowFall:
		act &^= (goodVals[site] << 1) ^ stuck
		act &^= 1
	}
	if act == 0 {
		return 0
	}
	// The faulty site value: the capture value on activated patterns,
	// the fault-free value elsewhere.  For plain stuck-at faults this is
	// the stuck word itself.
	fval := goodVals[site] ^ act
	if f.IsStem() {
		return s.propagate(goodVals, site, fval, fault.StemPin, 0)
	}
	return s.propagate(goodVals, site, fval, int(f.Gate), f.Pin)
}

// propagate re-evaluates the fanout cone.  For a stem fault the value of
// `site` itself is forced to fval; for a branch fault only gate
// `branchGate`'s pin `branchPin` sees the faulty value.
func (s *Simulator) propagate(goodVals []uint64, site circuit.NodeID, fval uint64, branchGate, branchPin int) uint64 {
	c := s.c
	// Collect the cone in topological order.  Node IDs are topological,
	// so a simple forward sweep from the first affected node works.
	var first circuit.NodeID
	stemFault := branchGate == fault.StemPin
	if stemFault {
		first = site
		s.fvals[site] = fval
		s.inCone[site] = true
	} else {
		first = circuit.NodeID(branchGate)
	}
	dirty := s.dirty[:0]
	var detected uint64
	if stemFault {
		dirty = append(dirty, site)
		if c.Node(site).IsOutput {
			detected |= fval ^ goodVals[site]
		}
	}
	n := circuit.NodeID(c.NumNodes())
	for id := first; id < n; id++ {
		node := &c.Nodes[id]
		if node.IsInput {
			continue
		}
		needs := false
		if !stemFault && id == circuit.NodeID(branchGate) {
			needs = true
		} else {
			for _, fin := range node.Fanin {
				if s.inCone[fin] && s.fvals[fin] != goodVals[fin] {
					needs = true
					break
				}
			}
		}
		if !needs {
			continue
		}
		v := s.evalFaulty(goodVals, id, fval, branchGate, branchPin)
		if v == goodVals[id] {
			continue // fault effect absorbed here
		}
		if !s.inCone[id] {
			s.inCone[id] = true
			dirty = append(dirty, id)
		}
		s.fvals[id] = v
		if node.IsOutput {
			detected |= v ^ goodVals[id]
		}
	}
	if s.captureOut != nil {
		for i, out := range c.Outputs {
			if s.inCone[out] {
				s.captureOut[i] = s.fvals[out]
			} else {
				s.captureOut[i] = goodVals[out]
			}
		}
	}
	// Reset scratch state.
	for _, id := range dirty {
		s.inCone[id] = false
	}
	s.dirty = dirty[:0]
	return detected
}

func (s *Simulator) evalFaulty(goodVals []uint64, id circuit.NodeID, fval uint64, branchGate, branchPin int) uint64 {
	node := &s.c.Nodes[id]
	val := func(pin int, fin circuit.NodeID) uint64 {
		if int(id) == branchGate && pin == branchPin {
			return fval
		}
		if s.inCone[fin] {
			return s.fvals[fin]
		}
		return goodVals[fin]
	}
	switch len(node.Fanin) {
	case 1:
		v := val(0, node.Fanin[0])
		switch node.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			return v
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			return ^v
		}
	case 2:
		a := val(0, node.Fanin[0])
		b := val(1, node.Fanin[1])
		switch node.Op {
		case logic.And:
			return a & b
		case logic.Nand:
			return ^(a & b)
		case logic.Or:
			return a | b
		case logic.Nor:
			return ^(a | b)
		case logic.Xor:
			return a ^ b
		case logic.Xnor:
			return ^(a ^ b)
		}
	}
	for len(s.inbuf) <= len(node.Fanin) {
		s.inbuf = append(s.inbuf, make([]uint64, len(s.inbuf)))
	}
	buf := s.inbuf[len(node.Fanin)]
	for i, fin := range node.Fanin {
		buf[i] = val(i, fin)
	}
	if node.Op == logic.TableOp {
		return node.Table.EvalWord(buf)
	}
	return logic.EvalWord(node.Op, buf)
}

// Result of a detection-probability measurement.
type Result struct {
	Faults   []fault.Fault
	Detected []int // #patterns detecting each fault
	Applied  int   // total patterns applied
}

// PSim returns the measured detection probability of fault i, per
// detection opportunity (see Trials).
func (r *Result) PSim(i int) float64 {
	return float64(r.Detected[i]) / float64(r.Trials(i))
}

// Trials returns the number of detection opportunities fault i had:
// Applied patterns for combinational kinds, and Applied minus one
// launch-less slot per 64-pattern block for transition faults (bit 0
// of every block has no launch pattern).
func (r *Result) Trials(i int) int {
	if r.Faults[i].Kind.IsTransition() {
		return TransitionOpportunities(r.Applied)
	}
	return r.Applied
}

// TransitionOpportunities returns the number of launch/capture pairs
// among n patterns applied as 64-pattern blocks: n - ceil(n/64).
func TransitionOpportunities(n int) int {
	return n - (n+63)/64
}

// Coverage returns the fraction of faults detected at least once.
func (r *Result) Coverage() float64 {
	det := 0
	for _, d := range r.Detected {
		if d > 0 {
			det++
		}
	}
	return float64(det) / float64(len(r.Faults))
}

// blockMask returns the valid-pattern mask of a block: all ones except
// when fewer than 64 patterns of the block count.
func blockMask(valid int) uint64 {
	if valid < 64 {
		return (uint64(1) << valid) - 1
	}
	return ^uint64(0)
}

// MeasureDetection applies numPatterns patterns from gen to the
// plan's circuit and counts, for every fault, how many patterns detect
// it — the experiment behind P_SIM in section 4 of the paper.  No fault
// dropping is performed.  It runs DetectionCounts over the whole
// DetectBlocks schedule; cancellation and progress work as there.
func (p *Plan) MeasureDetection(ctx context.Context, gen *pattern.Generator, numPatterns int, opt Options, progress Progress) (*Result, error) {
	counts, err := p.DetectionCounts(ctx, gen, DetectBlocks(numPatterns), opt, progress)
	if err != nil {
		return nil, err
	}
	return &Result{Faults: p.faults, Detected: counts, Applied: numPatterns}, nil
}

// MeasureDetectionNaive is MeasureDetection on the naive oracle: one
// serial cone re-simulation per fault per block, the independent
// reference the FFR engine is checked against.
func MeasureDetectionNaive(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, numPatterns int, progress Progress) (*Result, error) {
	s := New(c)
	res := &Result{
		Faults:   faults,
		Detected: make([]int, len(faults)),
	}
	words := make([]uint64, len(c.Inputs))
	det := make([]uint64, len(faults))
	for applied := 0; applied < numPatterns; applied += 64 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen.NextBlock(words)
		mask := blockMask(numPatterns - applied)
		s.SimulateBlock(words, faults, det)
		for i, d := range det {
			res.Detected[i] += bits.OnesCount64(d & mask)
		}
		if progress != nil {
			progress(min(applied+64, numPatterns), numPatterns)
		}
	}
	res.Applied = numPatterns
	return res, nil
}

// CoveragePoint is one row of a coverage curve.
type CoveragePoint struct {
	Patterns int
	Coverage float64 // percent of faults detected so far
}

// CoverageCurve fault-simulates with fault dropping and records the
// cumulative fault coverage at each checkpoint (pattern counts, sorted
// ascending) — the experiment behind Table 6.  It runs FirstDetections
// over the whole CurveBlocks schedule and turns the positions into the
// curve with CurveOf, so the curve is identical for every width and
// worker count.  When dropping exhausts the fault list mid-wave, the
// generator may end up further advanced than after a
// one-block-at-a-time run; the curve itself is unaffected.
// Cancellation and progress work as in DetectionCounts.
func (p *Plan) CoverageCurve(ctx context.Context, gen *pattern.Generator, checkpoints []int, opt Options, progress Progress) ([]CoveragePoint, error) {
	first, err := p.FirstDetections(ctx, gen, CurveBlocks(checkpoints), opt, progress)
	if err != nil {
		return nil, err
	}
	return CurveOf(first, checkpoints), nil
}

// CurveOf turns first-detection positions (FirstDetections, or their
// minimum over the block ranges of one run) into the run's coverage
// curve: at each checkpoint, sorted ascending, the percentage of
// faults first detected at or before it.
func CurveOf(first, checkpoints []int) []CoveragePoint {
	var out []CoveragePoint
	for _, cp := range slices.Sorted(slices.Values(checkpoints)) {
		dead := 0
		for _, f := range first {
			if f >= 0 && f <= cp {
				dead++
			}
		}
		out = append(out, CoveragePoint{Patterns: cp, Coverage: 100 * float64(dead) / float64(len(first))})
	}
	return out
}

// CoverageCurveNaive is CoverageCurve on the naive oracle: one serial
// cone re-simulation per live fault per block, dropping faults one by
// one.
func CoverageCurveNaive(ctx context.Context, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, checkpoints []int, progress Progress) ([]CoveragePoint, error) {
	cps := append([]int(nil), checkpoints...)
	sort.Ints(cps)
	s := New(c)
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
			s.SimulateBlock(words, alive, det[:len(alive)])
			// Drop detected faults.
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

// ExhaustiveDetection enumerates all 2^n input patterns (n <= 20) and
// returns the exact number of patterns detecting each fault.  Used as a
// ground-truth oracle in tests.
func ExhaustiveDetection(c *circuit.Circuit, faults []fault.Fault) ([]int, error) {
	if len(c.Inputs) > 20 {
		return nil, errTooManyInputs(len(c.Inputs))
	}
	s := New(c)
	counts := make([]int, len(faults))
	det := make([]uint64, len(faults))
	err := bitsim.Exhaustive(len(c.Inputs), func(words []uint64, _ uint64, valid int) {
		mask := blockMask(valid)
		s.SimulateBlock(words, faults, det)
		for i, d := range det {
			counts[i] += bits.OnesCount64(d & mask)
		}
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

type errTooManyInputs int

func (e errTooManyInputs) Error() string {
	return fmt.Sprintf("faultsim: exhaustive detection limited to 20 inputs, circuit has %d", int(e))
}
