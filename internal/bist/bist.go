// Package bist models the self-test configuration of section 8 of the
// paper: a pattern source (uniform BILBO-style PRPG or a weighted
// generator standing in for the NLFSRs of [KuWu84]) drives the
// combinational circuit, and a multiple-input signature register (MISR)
// compacts the responses [HeLe83].  A fault is caught by the self test
// exactly when its faulty signature differs from the good one — the
// package measures real signature-based coverage including aliasing.
package bist

import (
	"context"
	"fmt"
	"math"
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

// MISR is a multiple-input signature register over GF(2) with a
// primitive feedback polynomial.
type MISR struct {
	width uint
	taps  uint64
	state uint64
}

// NewMISR creates a signature register.  Supported widths follow
// pattern.Taps (4, 8, 16, 24, 32).
func NewMISR(width uint, seed uint64) (*MISR, error) {
	taps, ok := pattern.Taps(width)
	if !ok {
		return nil, fmt.Errorf("bist: no primitive polynomial for MISR width %d", width)
	}
	return &MISR{width: width, taps: taps, state: seed & (1<<width - 1)}, nil
}

// Clock shifts the register once and XORs the input word into the
// parallel inputs (input bit i lands on stage i mod width).
func (m *MISR) Clock(inputs uint64) {
	fb := parity(m.state & m.taps)
	m.state = ((m.state >> 1) | (fb << (m.width - 1))) ^ fold(inputs, m.width)
}

// Signature returns the current register contents.
func (m *MISR) Signature() uint64 { return m.state }

// Reset restores a seed state.
func (m *MISR) Reset(seed uint64) { m.state = seed & (1<<m.width - 1) }

// AliasingBound returns the asymptotic aliasing probability 2^-width of
// a primitive-polynomial MISR.
func (m *MISR) AliasingBound() float64 { return math.Pow(2, -float64(m.width)) }

func fold(w uint64, width uint) uint64 {
	if width >= 64 {
		return w
	}
	var out uint64
	for w != 0 {
		out ^= w & (1<<width - 1)
		w >>= width
	}
	return out
}

func parity(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// Plan describes one self-test session.
type Plan struct {
	// Cycles is the number of test patterns applied: 0 means 1024,
	// and a negative count is an error.
	Cycles int
	// MISRWidth selects the signature register width (default 16).
	MISRWidth uint
	// MISRSeed seeds the register (default 0).
	MISRSeed uint64
}

// Result reports the outcome of a simulated self-test session.
type Result struct {
	GoodSignature uint64
	// MISRWidth is the signature register width actually used (the
	// plan's width after defaulting).
	MISRWidth uint
	// Detected counts faults whose signature differs from the good one.
	Detected int
	// OutputDetected counts faults that produced at least one erroneous
	// response bit (detectable before compaction).
	OutputDetected int
	// Aliased counts faults with erroneous responses whose signature
	// nevertheless collapsed onto the good one.
	Aliased int
	Faults  int
	Cycles  int
}

// Coverage returns the signature-based fault coverage.
func (r *Result) Coverage() float64 {
	if r.Faults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Faults)
}

// Program is the immutable self-test artifact of one (circuit, fault
// list) pair.  It shares the FFR fault-simulation plan (lazily built on
// first FFR-engine run, or injected by the caller) and pools the
// per-run scratch — per-fault signature registers, response buffers —
// so any number of goroutines can run self-test sessions concurrently
// against one Program.  Every run is bit-identical to a serial run with
// the same generator stream and plan.
type Program struct {
	c      *circuit.Circuit
	faults []fault.Fault

	planOnce sync.Once
	planFn   func() *faultsim.Plan
	simPlan  *faultsim.Plan

	pool sync.Pool // *runState
}

// runState is one run's mutable scratch, pooled on the Program.
type runState struct {
	faultSigs      []uint64
	outputDetected []bool

	// The input words of one capture chunk (faultsim.ChunkBlocks
	// 64-cycle blocks; the naive engine uses the first block's), the
	// good and one fault's output words of one block, and the FFR
	// engine's detection words of the chunk, ChunkBlocks per fault.
	inWords, goodOut, faultyOut, det []uint64

	sim *faultsim.Simulator // naive engine, built on first use
}

// NewProgram builds the self-test artifact.  planFn supplies the
// shared FFR simulation plan on first need (so naive-engine-only use
// never builds it); nil derives a private plan from (c, faults).  The
// plan returned by planFn must have been built over exactly c and
// faults.
func NewProgram(c *circuit.Circuit, faults []fault.Fault, planFn func() *faultsim.Plan) *Program {
	p := &Program{c: c, faults: faults, planFn: planFn}
	p.pool.New = func() any {
		return &runState{
			faultSigs:      make([]uint64, len(faults)),
			outputDetected: make([]bool, len(faults)),
			inWords:        make([]uint64, len(c.Inputs)*faultsim.ChunkBlocks),
			goodOut:        make([]uint64, len(c.Outputs)),
			faultyOut:      make([]uint64, len(c.Outputs)),
			det:            make([]uint64, len(faults)*faultsim.ChunkBlocks),
		}
	}
	return p
}

// plan returns the shared FFR simulation plan, building it on first
// use.
func (p *Program) plan() *faultsim.Plan {
	p.planOnce.Do(func() {
		if p.planFn != nil {
			p.simPlan = p.planFn()
		}
		if p.simPlan == nil {
			p.simPlan = faultsim.NewPlan(p.c, p.faults)
		}
	})
	return p.simPlan
}

// Run simulates the complete self test: every fault's response
// stream is compacted into its own signature and compared against the
// good one.  The generator supplies the stimulus (uniform for a
// classic BILBO, weighted for the optimized NLFSR scheme).  engine
// produces the faulty responses.  The FFR engine captures
// faultsim.ChunkBlocks 64-cycle blocks per sweep, the chunk every
// measurement runs, and the registers are clocked block by block in
// cycle order.  Signatures are bit-identical for both engines.  Before
// every 64-cycle block Run checks ctx and, on cancellation, returns
// ctx.Err() and a nil result; progress, when non-nil, is called after
// every block.  Safe for concurrent use: concurrent runs share only
// the immutable plan and the scratch pool.
func (p *Program) Run(ctx context.Context, gen *pattern.Generator, plan Plan, engine faultsim.EngineKind, progress faultsim.Progress) (*Result, error) {
	c := p.c
	if gen.NumInputs() != len(c.Inputs) {
		return nil, fmt.Errorf("bist: generator has %d inputs, circuit %d", gen.NumInputs(), len(c.Inputs))
	}
	if err := faultsim.CheckEngine(engine); err != nil {
		return nil, err
	}
	switch {
	case plan.Cycles < 0:
		return nil, fmt.Errorf("bist: %d cycles, want at least 0 (0 = 1024)", plan.Cycles)
	case plan.Cycles == 0:
		plan.Cycles = 1024
	}
	if plan.MISRWidth == 0 {
		plan.MISRWidth = 16
	}
	good, err := NewMISR(plan.MISRWidth, plan.MISRSeed)
	if err != nil {
		return nil, err
	}
	st := p.pool.Get().(*runState)
	defer p.pool.Put(st)
	// Per-fault signature registers.
	for i := range st.faultSigs {
		st.faultSigs[i] = good.Signature()
	}
	clear(st.outputDetected)

	// Engine selection: the FFR engine captures, per block, every
	// stem's output-flip words once and composes each fault's faulty
	// responses from them; the naive oracle re-simulates every fault's
	// cone.  Both yield the same response words, hence identical
	// signatures.
	if engine == faultsim.EngineNaive {
		err = p.runNaive(ctx, gen, plan, good, st, progress)
	} else {
		err = p.runFFR(ctx, gen, plan, good, st, progress)
	}
	if err != nil {
		return nil, err
	}

	res := &Result{
		GoodSignature: good.Signature(),
		MISRWidth:     plan.MISRWidth,
		Faults:        len(p.faults),
		Cycles:        plan.Cycles,
	}
	for fi := range p.faults {
		if st.faultSigs[fi] != res.GoodSignature {
			res.Detected++
		} else if st.outputDetected[fi] {
			res.Aliased++
		}
	}
	res.OutputDetected = res.Detected + res.Aliased
	return res, nil
}

// runFFR is the FFR self-test loop.  Every chunk of up to
// faultsim.ChunkBlocks 64-cycle blocks runs through one capture sweep
// (a short last chunk pads its spare lanes with empty blocks, which
// are never clocked).  Then, block by block in cycle order, the good
// register and then every fault's register, in fault order, clock that
// block's responses, the order a one-block capture clocks them.  Each
// register sees its cycles in order, so signatures do not depend on
// the chunk.  MISR clocking, not capture, is most of a self test's
// time.
func (p *Program) runFFR(ctx context.Context, gen *pattern.Generator, plan Plan, good *MISR, st *runState, progress faultsim.Progress) error {
	const w = faultsim.ChunkBlocks
	engine := p.plan().AcquireEngine()
	defer engine.Release()
	sigs, outDet, det, goodOut, out := st.faultSigs, st.outputDetected, st.det, st.goodOut, st.faultyOut
	scratch := &MISR{width: good.width, taps: good.taps}
	nBlocks := (plan.Cycles + 63) / 64
	for b := 0; b < nBlocks; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		l := b % w
		if l == 0 {
			gen.NextBlocks(st.inWords, w, min(w, nBlocks-b))
			engine.SimulateChunkOutputs(st.inWords, det)
		}
		valid := validCycles(plan.Cycles, b)
		mask := validMask(valid)
		engine.GoodOutputWords(l, goodOut)
		clockStream(good, goodOut, valid)
		for fi := range sigs {
			// A fault that flips no output in this block responds with
			// the good outputs.
			resp := goodOut
			if d := det[fi*w+l]; d != 0 {
				if d&mask != 0 {
					outDet[fi] = true
				}
				engine.FaultOutputs(fi, l, out)
				resp = out
			}
			scratch.state = sigs[fi]
			clockStream(scratch, resp, valid)
			sigs[fi] = scratch.state
		}
		if progress != nil {
			progress(min((b+1)*64, plan.Cycles), plan.Cycles)
		}
	}
	return nil
}

// runNaive is the oracle self-test loop: one 64-cycle block at a time,
// every fault's faulty responses from its own cone re-simulation.
func (p *Program) runNaive(ctx context.Context, gen *pattern.Generator, plan Plan, good *MISR, st *runState, progress faultsim.Progress) error {
	if st.sim == nil {
		st.sim = faultsim.New(p.c)
	}
	sim, in := st.sim, st.inWords[:len(p.c.Inputs)]
	scratch := &MISR{width: good.width, taps: good.taps}
	nBlocks := (plan.Cycles + 63) / 64
	for b := 0; b < nBlocks; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		gen.NextBlock(in)
		valid := validCycles(plan.Cycles, b)
		sim.SimulateBlock(in, nil, nil)
		sim.GoodOutputWords(st.goodOut)
		clockStream(good, st.goodOut, valid)
		for fi, f := range p.faults {
			if sim.SimulateFaultBlock(in, f, st.faultyOut)&validMask(valid) != 0 {
				st.outputDetected[fi] = true
			}
			scratch.state = st.faultSigs[fi]
			clockStream(scratch, st.faultyOut, valid)
			st.faultSigs[fi] = scratch.state
		}
		if progress != nil {
			progress(min((b+1)*64, plan.Cycles), plan.Cycles)
		}
	}
	return nil
}

// validCycles returns how many of block b's 64 cycles fall within a
// session of the given length.
func validCycles(cycles, b int) int {
	return min(cycles-b*64, 64)
}

// validMask returns the mask of a block's first valid cycles.
func validMask(valid int) uint64 {
	if valid < 64 {
		return 1<<valid - 1
	}
	return ^uint64(0)
}

// clockStream feeds `valid` cycles of output words into the MISR:
// cycle b contributes output bit words' bit b, assembled into one
// parallel input word (output i on MISR input i).
func clockStream(m *MISR, outWords []uint64, valid int) {
	for b := 0; b < valid; b++ {
		var in uint64
		for i, w := range outWords {
			in |= (w >> b & 1) << (uint(i) % 64)
		}
		m.Clock(in)
	}
}
