package faultsim

import (
	"fmt"
	"math/bits"
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
	"protest/internal/widesim"
)

// WideEngine is the width-erased facade over the generic FFR engine:
// one instance simulates chunks of W consecutive 64-pattern blocks
// with all engine words widened to W lanes (W = 1 or 8).  Chunk
// inputs and detection words use the lane-major layout of
// pattern.Generator.NextBlocks — inputWords[i*W+l], det[fi*W+l] — where
// lane l is pattern block l of the chunk.
//
// A chunk always carries W lanes; callers packing fewer than W blocks
// zero-fill the spare lanes (NextBlocks does) and mask the
// corresponding det lanes out, as they mask the ragged final block.
// Every lane's words are exactly what the naive oracle
// (Simulator.SimulateBlock) computes for that block, at every width.
type WideEngine interface {
	// Width returns W, the number of 64-pattern lanes per chunk.
	Width() int
	// SimulateChunk writes into det[fi*W+l] the detecting-pattern word
	// of fault fi in lane l.  Groups dropped via liveGroups are
	// skipped, leaving their det lanes untouched.
	SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool)
	// SimulateChunkOutputs is SimulateChunk in capture mode (BIST
	// response compaction): every stem flip runs through its full cone
	// and the per-output flip words are kept, so the accessors below
	// can compose any fault's faulty outputs.  All groups are live.
	SimulateChunkOutputs(inputWords []uint64, det []uint64)
	// FaultOutputs writes fault fi's faulty output words in lane l of
	// the last capture chunk into out, one word per primary output.
	FaultOutputs(fi, lane int, out []uint64)
	// GoodOutputWords writes the good output words of lane l of the
	// last capture chunk into dst, one word per primary output.
	GoodOutputWords(lane int, dst []uint64)
	// Release returns the engine to its width's pool.
	Release()
}

// widePools hold the wide engines of every plan, one pool per width
// (W=1 and W=8).  No plan owns them: an engine's node-indexed scratch is
// sized for whichever plan acquires it, so a server holding many plans
// keeps about one engine per width and concurrent caller, not one per
// plan.
var widePools = [2]sync.Pool{
	{New: func() any { return new(wideEngine[widesim.B1]) }},
	{New: func() any { return new(wideEngine[widesim.B8]) }},
}

// widthSlot maps a supported width to its pool index.
func widthSlot(width int) int {
	switch width {
	case 1:
		return 0
	case 8:
		return 1
	}
	panic(fmt.Sprintf("faultsim: unsupported simulation width %d", width))
}

// AcquireWideEngine returns a pooled wide engine of the given width
// (1 or 8) bound to this plan.  The caller owns it until Release;
// wide engines must not be shared between goroutines.
func (p *Plan) AcquireWideEngine(width int) WideEngine {
	return p.acquireWide(width)
}

// boundWide is the package's view of a pooled wide engine.
type boundWide interface {
	WideEngine
	bind(*Plan)
	buffers() (words, det []uint64)
	// simulate is SimulateChunk when counts is nil.  Otherwise it
	// counts instead of storing: for every fault fi of a live group it
	// adds to counts[fi] the set bits of its detection words under the
	// lane masks lanes (one word per lane), and writes no detection
	// words.
	simulate(inputWords, det, lanes []uint64, counts []int, liveGroups []bool)
}

func (p *Plan) acquireWide(width int) boundWide {
	e := widePools[widthSlot(width)].Get().(boundWide)
	e.bind(p)
	return e
}

// wideEngine is the FFR engine over B lane vectors.  Per chunk it runs
// the good simulation once, then per fanout-free region:
//
//  1. critical-path-traces *backwards* from the region stem, computing
//     for every member line the exact vector of patterns on which a
//     flip of that line reaches the stem (inside an FFR there is a
//     single path and no reconvergence, so the trace is exact);
//  2. forward-propagates a flip of the *stem* once, stopping at the
//     stem's immediate dominator, where the remaining observability is
//     the dominator's own (already computed) observability;
//  3. intersects each member fault's activation with its traced line
//     and the stem observability.
//
// Per-fault work is therefore O(1) vectors instead of a cone
// re-simulation, and per-chunk work is O(gates + Σ stem regions)
// instead of O(faults × cone).  Every vector is an exact per-pattern
// boolean computation, so the result is bit-identical to the naive
// single-fault propagation engine.  Propagation bookkeeping runs once
// per chunk, amortizing over W×64 patterns.
//
// The good simulation runs the compiled levelized program into the
// simulator's good bank, and each stem propagation runs the stem's
// compiled two-bank region into its faulty bank.  The critical-path
// trace fills a line table: for every node and every gate pin of a
// needed region, its sensitization to the region's stem.  Each fault
// reads its one line (resolved at plan time), so the per-fault pass is
// a single fused lane loop: activation & line & stem observability.
type wideEngine[B widesim.Block] struct {
	plan *Plan
	good widesim.Sim[B]
	code *widesim.Regions // the circuit's compiled detection regions

	line    []B      // per line slot (stemRegions.pinOff): sensitization to its FFR stem
	obs     []B      // per stem index: stem observability
	need    []bool   // per stem index: required this chunk
	prebuf  []B      // prefix scratch for n-ary pin sensitization
	lanebuf []uint64 // per-lane gather scratch for table gates
	evalbuf []B      // gate-input gather scratch

	// Per-call buffers of the measurement loops: numInputs×W input
	// words and numFaults×W detection words.
	words, det []uint64

	// Capture (BIST) state, sized on each SimulateChunkOutputs.
	local   []uint64 // numFaults×W detect-at-stem words of the last capture chunk
	poDiff  []B      // per stem index × output: flip vectors (stem-major)
	goodOut []B      // good output vectors of the last capture chunk
}

// bind sizes the engine's scratch for plan p, reusing its capacity.
// Stale contents are never read: every entry is written before use in
// each chunk.
func (e *wideEngine[B]) bind(p *Plan) {
	c := p.c
	w := e.Width()
	e.plan = p
	prog, code := p.regs.wide()
	e.good.Reset(prog)
	e.code = code
	e.line = grow(e.line, p.regs.numLines)
	e.obs = grow(e.obs, len(p.ffr.Stems))
	e.need = grow(e.need, len(p.ffr.Stems))
	e.prebuf = grow(e.prebuf, p.maxFanin)
	e.lanebuf = grow(e.lanebuf, p.maxFanin)
	e.evalbuf = grow(e.evalbuf, p.maxFanin)
	e.words = grow(e.words, len(c.Inputs)*w)
	e.det = grow(e.det, len(p.faults)*w)
}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small.  Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Width returns the engine's lane count.
func (e *wideEngine[B]) Width() int { return widesim.Lanes[B]() }

// Release returns the engine to its width's pool, dropping its plan.
func (e *wideEngine[B]) Release() {
	e.plan, e.code = nil, nil
	e.good.Reset(nil)
	widePools[widthSlot(e.Width())].Put(e)
}

// buffers returns the engine's input and detection word buffers, sized
// numInputs×W and numFaults×W for the bound plan.
func (e *wideEngine[B]) buffers() (words, det []uint64) {
	return e.words, e.det
}

// simulateGood runs the good simulation of one chunk.
func (e *wideEngine[B]) simulateGood(inputWords []uint64) []B {
	if err := e.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the chunk from the plan's circuit
	}
	e.good.Run()
	return e.good.Values()
}

// SimulateChunk implements WideEngine.
func (e *wideEngine[B]) SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool) {
	e.simulate(inputWords, det, nil, nil, liveGroups)
}

// simulate implements boundWide.  In a counting chunk a lane mask
// joins each stem observability, so every fault's words carry only the
// patterns it counts.
func (e *wideEngine[B]) simulate(inputWords, det, lanes []uint64, counts []int, liveGroups []bool) {
	g := e.simulateGood(inputWords)
	e.markNeeds(liveGroups)
	e.sensSweep(g)

	// Reverse topological stem order: each dominator composition reads
	// an already computed downstream observability.
	for si := len(e.need) - 1; si >= 0; si-- {
		if e.need[si] {
			e.propagateStem(g, si)
		}
	}

	for si, grp := range e.plan.part.Groups {
		if liveGroups != nil && !liveGroups[si] {
			continue
		}
		if counts == nil {
			e.detect(g, grp, &e.obs[si], det)
			continue
		}
		mask := e.obs[si]
		for i := range lanes {
			mask[i] &= lanes[i]
		}
		e.count(g, grp, &mask, counts)
	}
}

// detect writes activation & line & mask into the det lanes of every
// fault of grp: the fault's local detectability at its FFR stem times
// the stem's observability (or, in capture mode, all ones).  Every kind
// is a conditional stuck-at: the base activation (site differs from
// the faulty capture value) is intersected with the kind's condition,
// and the stuck-at propagation downstream is untouched.  The
// transition launch shift runs per lane, never across lanes:
// launch/capture pairing is block-local, so every lane computes
// exactly what a single-block simulation of that block would.
func (e *wideEngine[B]) detect(g []B, grp []int32, mask *B, det []uint64) {
	info, line := e.plan.info, e.line
	w := widesim.Lanes[B]()
	for _, fi := range grp {
		in := &info[fi]
		d := det[int(fi)*w : int(fi)*w+w]
		site, l, stuck := &g[in.site], &line[in.line], in.stuck
		switch in.kind {
		case fault.KindBridgeAND, fault.KindBridgeOR:
			// The short drives the victim only while the aggressor
			// holds the faulty capture value.
			aggr := &g[in.aggr]
			for i := range d {
				d[i] = ((*site)[i] ^ stuck) &^ ((*aggr)[i] ^ stuck) & (*l)[i] & (*mask)[i]
			}
		case fault.KindSlowRise, fault.KindSlowFall:
			// The site held the faulty value on the previous pattern;
			// bit 0 of each lane has no launch pattern.
			for i := range d {
				s := (*site)[i]
				d[i] = (s ^ stuck) &^ ((s << 1) ^ stuck) &^ 1 & (*l)[i] & (*mask)[i]
			}
		default:
			for i := range d {
				d[i] = ((*site)[i] ^ stuck) & (*l)[i] & (*mask)[i]
			}
		}
	}
}

// count is detect for a counting run: it adds the set bits of every
// fault's detection words to counts[fi] and stores no words.  Its kind
// cases are detect's, term for term; it is a loop of its own so that
// detect's word-writing loop carries no counting.
func (e *wideEngine[B]) count(g []B, grp []int32, mask *B, counts []int) {
	info, line := e.plan.info, e.line
	for _, fi := range grp {
		in := &info[fi]
		site, l, stuck := &g[in.site], &line[in.line], in.stuck
		n := 0
		switch in.kind {
		case fault.KindBridgeAND, fault.KindBridgeOR:
			aggr := &g[in.aggr]
			for i := 0; i < len(*mask); i++ {
				n += bits.OnesCount64(((*site)[i] ^ stuck) &^ ((*aggr)[i] ^ stuck) & (*l)[i] & (*mask)[i])
			}
		case fault.KindSlowRise, fault.KindSlowFall:
			for i := 0; i < len(*mask); i++ {
				s := (*site)[i]
				n += bits.OnesCount64((s ^ stuck) &^ ((s << 1) ^ stuck) &^ 1 & (*l)[i] & (*mask)[i])
			}
		default:
			for i := 0; i < len(*mask); i++ {
				n += bits.OnesCount64(((*site)[i] ^ stuck) & (*l)[i] & (*mask)[i])
			}
		}
		counts[fi] += n
	}
}

// markNeeds marks the FFR groups whose stem observability this chunk
// must produce: every live group plus, transitively, the FFR of each
// needed stem's immediate dominator (the dominator composition reads
// line[idom] and obs[stem-of-idom]).  The chain always points to
// higher stem indices, so one ascending sweep closes it.
func (e *wideEngine[B]) markNeeds(liveGroups []bool) {
	ffr := e.plan.ffr
	for si := range ffr.Stems {
		if liveGroups != nil {
			e.need[si] = liveGroups[si]
		} else {
			e.need[si] = len(e.plan.part.Groups[si]) > 0
		}
	}
	for si, s := range ffr.Stems {
		if !e.need[si] || e.plan.c.Node(s).IsOutput {
			continue
		}
		if d := ffr.Idom[s]; d >= 0 {
			e.need[ffr.StemIndex[d]] = true
		}
	}
}

// sensSweep critical-path-traces every needed FFR: one reverse
// topological sweep over the region tree from the stem down to every
// member, keeping every line.  Each member gate's pin sensitizations,
// times the gate's own sensitization, fill the gate's pin lines, and
// an in-region fanin's node line is its pin line (the fanin's unique
// fanout is this gate).
func (e *wideEngine[B]) sensSweep(g []B) {
	c := e.plan.c
	ffr := e.plan.ffr
	line, pinOff := e.line, e.plan.regs.pinOff
	for si := range ffr.Stems {
		if !e.need[si] {
			continue
		}
		members := ffr.Members[si]
		line[members[0]] = widesim.Ones[B]()
		for _, id := range members {
			n := &c.Nodes[id]
			if n.IsInput || len(n.Fanin) == 0 {
				continue
			}
			sout := &line[id]
			ps := line[pinOff[id] : int(pinOff[id])+len(n.Fanin)]
			e.pinSensAll(g, id, n, ps)
			for pin, f := range n.Fanin {
				p := &ps[pin]
				for i := 0; i < len(*p); i++ {
					(*p)[i] &= (*sout)[i]
				}
				if ffr.StemIndex[f] == int32(si) {
					line[f] = *p
				}
			}
		}
	}
}

// propagateStem forward-simulates a flip of stem si through its
// dominator-bounded region and writes the stem observability into
// obs[si].  It runs branch-free: the stem's compiled region flips the
// stem and re-evaluates every node of the region into the faulty bank,
// reading the good bank outside the region, so a gate none of whose
// fanins flipped simply recomputes its good value and the result is
// exact lane by lane.  Beyond a dominator cut d the deviation is
// exactly a flip of d, whose fate is d's own observability.
func (e *wideEngine[B]) propagateStem(g []B, si int) {
	ffr := e.plan.ffr
	s := ffr.Stems[si]
	o := &e.obs[si]
	if e.plan.c.Node(s).IsOutput {
		*o = widesim.Ones[B]()
		return
	}
	var zero B
	*o = zero
	d := ffr.Idom[s]
	if d == circuit.InvalidNode {
		return
	}
	e.good.Propagate(e.code, si)
	f := e.good.Faulty()
	if d == circuit.DomSink {
		// Outputs outside the region keep their good values.
		outs := e.plan.c.Outputs
		for _, oi := range e.code.Outputs(si) {
			fo, gdo := &f[outs[oi]], &g[outs[oi]]
			for i := 0; i < len(*o); i++ {
				(*o)[i] |= (*fo)[i] ^ (*gdo)[i]
			}
		}
		return
	}
	fd, gd, ld, od := &f[d], &g[d], &e.line[d], &e.obs[ffr.StemIndex[d]]
	for i := 0; i < len(*o); i++ {
		(*o)[i] = ((*fd)[i] ^ (*gd)[i]) & (*ld)[i] & (*od)[i]
	}
}

// pinSensAll fills ps with one vector per input pin of gate id: the
// patterns on which flipping that pin alone flips the gate output,
// with all other pins at their good values.
func (e *wideEngine[B]) pinSensAll(g []B, id circuit.NodeID, n *circuit.Node, ps []B) {
	npins := len(n.Fanin)
	switch n.Op {
	case logic.Xor, logic.Xnor:
		ones := widesim.Ones[B]()
		for i := range ps {
			ps[i] = ones
		}
		return
	case logic.Buf, logic.Not:
		ps[0] = widesim.Ones[B]()
		return
	case logic.And, logic.Nand:
		if npins == 1 {
			ps[0] = widesim.Ones[B]()
			return
		}
		if npins == 2 {
			ps[0] = g[n.Fanin[1]]
			ps[1] = g[n.Fanin[0]]
			return
		}
		pre := e.prebuf[:npins]
		acc := widesim.Ones[B]()
		for i, f := range n.Fanin {
			pre[i] = acc
			acc = widesim.And(acc, g[f])
		}
		suf := widesim.Ones[B]()
		for i := npins - 1; i >= 0; i-- {
			ps[i] = widesim.And(pre[i], suf)
			suf = widesim.And(suf, g[n.Fanin[i]])
		}
		return
	case logic.Or, logic.Nor:
		if npins == 1 {
			ps[0] = widesim.Ones[B]()
			return
		}
		if npins == 2 {
			ps[0] = widesim.Not(g[n.Fanin[1]])
			ps[1] = widesim.Not(g[n.Fanin[0]])
			return
		}
		pre := e.prebuf[:npins]
		var acc B
		for i, f := range n.Fanin {
			pre[i] = acc
			acc = widesim.Or(acc, g[f])
		}
		var suf B
		for i := npins - 1; i >= 0; i-- {
			ps[i] = widesim.Not(widesim.Or(pre[i], suf))
			suf = widesim.Or(suf, g[n.Fanin[i]])
		}
		return
	}
	for i := range ps {
		ps[i] = e.flipEval(g, id, n, i)
	}
}

// flipEval evaluates the gate with one pin complemented and XORs
// against the good output: the exact boolean difference.  pinSensAll
// handles every basic op in closed form, so only truth tables get
// here; they evaluate per lane through the single-word kernel, exactly
// as bitsim would.
func (e *wideEngine[B]) flipEval(g []B, id circuit.NodeID, n *circuit.Node, pin int) B {
	in := e.evalbuf[:len(n.Fanin)]
	for i, f := range n.Fanin {
		in[i] = g[f]
	}
	in[pin] = widesim.Not(in[pin])
	var v B
	buf := e.lanebuf[:len(in)]
	for l := 0; l < len(v); l++ {
		for i := range in {
			buf[i] = in[i][l]
		}
		v[l] = n.Table.EvalWord(buf)
	}
	return widesim.Xor(v, g[id])
}

// ---------------------------------------------------------------------
// Capture mode: faulty output words for response compaction (BIST).

// SimulateChunkOutputs implements WideEngine.  Capture propagates
// every faulty stem through its full cone, so no dominator chains are
// needed, and the per-fault detect-at-stem words come from the
// detection writer with an all-ones mask.
func (e *wideEngine[B]) SimulateChunkOutputs(inputWords []uint64, det []uint64) {
	c := e.plan.c
	g := e.simulateGood(inputWords)
	nOut := len(c.Outputs)
	w := e.Width()
	e.poDiff = grow(e.poDiff, len(e.plan.ffr.Stems)*nOut)
	e.local = grow(e.local, len(e.plan.faults)*w)
	e.goodOut = grow(e.goodOut, nOut)
	for i, id := range c.Outputs {
		e.goodOut[i] = g[id]
	}
	for si := range e.need {
		e.need[si] = len(e.plan.part.Groups[si]) > 0
	}
	e.sensSweep(g)

	full := e.plan.regs.fullWide()
	ones := widesim.Ones[B]()
	for si, grp := range e.plan.part.Groups {
		if len(grp) == 0 {
			continue
		}
		po := e.poDiff[si*nOut : (si+1)*nOut]
		e.captureStem(g, full, si, po)
		var acc B
		for _, x := range po {
			acc = widesim.Or(acc, x)
		}
		e.detect(g, grp, &ones, e.local)
		for _, fi := range grp {
			k := int(fi) * w
			widesim.Store(widesim.And(widesim.Load[B](e.local[k:]), acc), det[k:k+w])
		}
	}
}

// captureStem propagates a flip of stem si through its compiled full
// cone, as propagateStem does, and records every output's flip vector
// in po.
func (e *wideEngine[B]) captureStem(g []B, full *widesim.Regions, si int, po []B) {
	clear(po)
	e.good.Propagate(full, si)
	f := e.good.Faulty()
	outs := e.plan.c.Outputs
	for _, oi := range full.Outputs(si) {
		o := outs[oi]
		po[oi] = widesim.Xor(f[o], g[o])
	}
}

// FaultOutputs implements WideEngine: on the patterns where the fault
// effect reaches the stem, each output flips exactly where the stem
// flip reached it.
func (e *wideEngine[B]) FaultOutputs(fi, lane int, out []uint64) {
	si := int(e.plan.info[fi].group)
	nOut := len(e.goodOut)
	l := e.local[fi*e.Width()+lane]
	po := e.poDiff[si*nOut : (si+1)*nOut]
	for i := range e.goodOut {
		out[i] = e.goodOut[i][lane] ^ (l & po[i][lane])
	}
}

// GoodOutputWords implements WideEngine.
func (e *wideEngine[B]) GoodOutputWords(lane int, dst []uint64) {
	for i := range e.goodOut {
		dst[i] = e.goodOut[i][lane]
	}
}
