package faultsim

import (
	"fmt"
	"math/bits"
	"sync"

	"protest/internal/widesim"
)

// Engine is the FFR engine.  One instance simulates chunks of
// ChunkBlocks consecutive 64-pattern blocks, one block per lane of the
// widesim lane vectors.  Chunk inputs and detection words use the
// lane-major layout of pattern.Generator.NextBlocks —
// inputWords[i*ChunkBlocks+l], det[fi*ChunkBlocks+l] — where lane l is
// pattern block l of the chunk.
//
// A chunk always carries ChunkBlocks lanes; callers packing fewer
// blocks zero-fill the spare lanes (NextBlocks does) and mask the
// corresponding det lanes out, as they mask the ragged final block.
// Every lane's words are exactly what the naive oracle
// (Simulator.SimulateBlock) computes for that block.
//
// Per chunk it runs the good simulation once, then per needed
// fanout-free region, in descending stem order, the stem's compiled
// streams (widesim.Stems):
//
//  1. the critical-path trace *backwards* from the region stem, which
//     writes for every member line the exact vector of patterns on
//     which a flip of that line reaches the stem (inside an FFR there is
//     a single path and no reconvergence, so the trace is exact);
//  2. the forward propagation of a flip of the *stem*, stopping at the
//     stem's immediate dominator, and the composition of the stem's
//     observability: beyond the dominator the deviation is a flip of
//     the dominator, whose fate is its own (already computed)
//     observability, and a stem dominated by the virtual sink ORs the
//     flips of the outputs of its cone.
//
// It then intersects each member fault's activation with its traced
// line and the stem observability, which the records of the plan
// locate in the value array, and stores the words (detect) or adds up
// their set bits (count).  Per-fault work is therefore O(1) vectors
// instead of a cone re-simulation, and per-chunk work is O(gates + Σ
// stem regions) instead of O(faults × cone).  Every vector is an exact
// per-pattern boolean computation, so the result is bit-identical to
// the naive single-fault propagation engine.
//
// Every step but the per-fault pass runs in widesim's evaluation loops,
// and on CPUs with AVX2 the counting pass runs the assembly kernel
// count8AVX2.  An Engine must not be shared between goroutines.
type Engine struct {
	plan  *Plan
	sim   widesim.Sim
	stems *widesim.Stems // the circuit's compiled per-stem streams
	recs  []faultRec     // the plan's fault records
	need  []bool         // per stem index: required this chunk

	// Per-call buffers of the measurement loops: numInputs×ChunkBlocks
	// input words and numFaults×ChunkBlocks detection words.
	words, det []uint64

	// Capture (BIST) state, sized on each SimulateChunkOutputs and
	// dropped by Release, so a pooled engine holds none of it.
	local   []uint64      // numFaults×ChunkBlocks detect-at-stem words of the last capture chunk
	poDiff  []widesim.Vec // per stem index × output: flip vectors (stem-major)
	goodOut []widesim.Vec // good output vectors of the last capture chunk
}

// enginePool holds the engines of every plan.  No plan owns them: an
// engine's node-indexed scratch is sized for whichever plan acquires
// it, so a server holding many plans keeps about one engine per
// concurrent caller, not one per plan.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// AcquireEngine returns a pooled engine bound to this plan.  The
// caller owns it until Release.
func (p *Plan) AcquireEngine() *Engine {
	e := enginePool.Get().(*Engine)
	e.bind(p)
	return e
}

// bind sizes the engine's scratch for plan p, reusing its capacity.
// Stale contents are never read: every entry is written before use in
// each chunk.
func (e *Engine) bind(p *Plan) {
	c := p.c
	e.plan = p
	prog, stems := p.code.streams()
	e.stems, e.recs = stems, p.records()
	e.sim.Reset(prog, stems.Slots())
	e.need = grow(e.need, len(p.ffr.Stems))
	e.words = grow(e.words, len(c.Inputs)*ChunkBlocks)
	e.det = grow(e.det, len(p.faults)*ChunkBlocks)
}

// grow returns s resized to n elements, reallocating only when its
// capacity is too small.  Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release returns the engine to the pool, dropping its plan and its
// capture buffers: a self test allocates those once per run, and the
// measurements that share the pool never use them.
func (e *Engine) Release() {
	e.plan, e.stems, e.recs = nil, nil, nil
	e.local, e.poDiff, e.goodOut = nil, nil, nil
	e.sim.Reset(nil, 0)
	enginePool.Put(e)
}

// simulateGood runs the good simulation of one chunk and returns the
// whole value array.
func (e *Engine) simulateGood(inputWords []uint64) []widesim.Vec {
	if err := e.sim.SetInputs(inputWords); err != nil {
		panic(err) // callers size the chunk from the plan's circuit
	}
	e.sim.Run()
	return e.sim.Slots()
}

// SimulateChunk writes into det[fi*ChunkBlocks+l] the detecting-pattern
// word of fault fi in lane l.  Groups dropped via liveGroups are
// skipped, leaving their det lanes untouched.
func (e *Engine) SimulateChunk(inputWords []uint64, det []uint64, liveGroups []bool) {
	e.simulate(inputWords, det, nil, nil, liveGroups)
}

// simulate is SimulateChunk when counts is nil.  Otherwise it counts
// instead of storing: for every fault fi of a live group it adds to
// counts[fi] the set bits of its detection words under the lane masks
// lanes (one word per lane), and writes no detection words.  In a
// counting chunk the lane mask joins each stem observability, so every
// fault's words carry only the patterns it counts.
func (e *Engine) simulate(inputWords, det, lanes []uint64, counts []int, liveGroups []bool) {
	v := e.simulateGood(inputWords)
	e.markNeeds(liveGroups)
	// Descending stem order: each composition reads an already
	// computed downstream observability.
	for si := len(e.need) - 1; si >= 0; si-- {
		if e.need[si] {
			e.sim.Observe(e.stems, si)
		}
	}

	for si, grp := range e.plan.part.Groups {
		if len(grp) == 0 || liveGroups != nil && !liveGroups[si] {
			continue
		}
		obs := &v[e.stems.Obs(si)]
		if counts == nil {
			detectWords(v, e.recs, grp, obs, det)
			continue
		}
		mask := *obs
		for i := range lanes {
			mask[i] &= lanes[i]
		}
		e.count(v, grp, &mask, counts)
	}
}

// count adds, for every fault fi of grp, the set bits of its detection
// words under mask to counts[fi]: with the assembly kernel count8AVX2
// where the CPU has AVX2, and with countWords elsewhere.
func (e *Engine) count(v []widesim.Vec, grp []int32, mask *widesim.Vec, counts []int) {
	if widesim.HasAVX2() {
		count8(v, e.recs, grp, mask, counts)
		return
	}
	countWords(v, e.recs, grp, mask, counts)
}

// count8 runs count8AVX2 after the checks that stand for its unchecked
// accesses: every fault index of grp is below len(recs) by
// construction (fault.GroupByFFR), and every slot of recs below the
// compiled streams' slot count, which bind sized v to.
func count8(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, counts []int) {
	if len(counts) < len(recs) {
		panic(fmt.Sprintf("faultsim: %d counts for %d faults", len(counts), len(recs)))
	}
	count8AVX2(v, recs, grp, mask, counts)
}

// detectWords writes activation & line & mask into the det lanes of
// every fault of grp: the fault's local detectability at its FFR stem
// times the stem's observability (or, in capture mode, all ones).
// Every kind is a conditional stuck-at: the base activation (site
// differs from the faulty capture value) is intersected with the
// kind's condition, and the stuck-at propagation downstream is
// untouched.  The transition launch shift runs per lane, never across
// lanes: launch/capture pairing is block-local, so every lane computes
// exactly what a single-block simulation of that block would.
func detectWords(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, det []uint64) {
	for _, fi := range grp {
		r := &recs[fi]
		d := (*widesim.Vec)(det[int(fi)*ChunkBlocks:])
		site, l, stuck := &v[r.site], &v[r.line], r.stuck
		switch r.act {
		case actBridge:
			// The short drives the victim only while the aggressor
			// holds the faulty capture value.
			aggr := &v[r.aggr]
			for i := range d {
				d[i] = (site[i] ^ stuck) &^ (aggr[i] ^ stuck) & l[i] & mask[i]
			}
		case actTransition:
			// The site held the faulty value on the previous pattern;
			// bit 0 of each lane has no launch pattern.
			for i := range d {
				s := site[i]
				d[i] = (s ^ stuck) &^ ((s << 1) ^ stuck) &^ 1 & l[i] & mask[i]
			}
		default:
			for i := range d {
				d[i] = (site[i] ^ stuck) & l[i] & mask[i]
			}
		}
	}
}

// countWords is detectWords for a counting run: it adds the set bits
// of every fault's detection words to counts[fi] and stores no words.
// Its cases are detectWords', term for term; it is a loop of its own
// so that the word-writing loop carries no counting.  It counts on
// CPUs without AVX2, and it is count8AVX2's test reference.
func countWords(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, counts []int) {
	for _, fi := range grp {
		r := &recs[fi]
		site, l, stuck := &v[r.site], &v[r.line], r.stuck
		n := 0
		switch r.act {
		case actBridge:
			aggr := &v[r.aggr]
			for i := range mask {
				n += bits.OnesCount64((site[i] ^ stuck) &^ (aggr[i] ^ stuck) & l[i] & mask[i])
			}
		case actTransition:
			for i := range mask {
				s := site[i]
				n += bits.OnesCount64((s ^ stuck) &^ ((s << 1) ^ stuck) &^ 1 & l[i] & mask[i])
			}
		default:
			for i := range mask {
				n += bits.OnesCount64((site[i] ^ stuck) & l[i] & mask[i])
			}
		}
		counts[fi] += n
	}
}

// markNeeds marks the FFR groups whose stem observability this chunk
// must produce: every live group plus, transitively, the FFR of each
// needed stem's immediate dominator (the dominator composition reads
// the dominator's line and the observability of its stem).  The chain
// always points to higher stem indices, so one ascending sweep closes
// it.
func (e *Engine) markNeeds(liveGroups []bool) {
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

// ---------------------------------------------------------------------
// Capture mode: faulty output words for response compaction (BIST).

// SimulateChunkOutputs is SimulateChunk in capture mode (BIST response
// compaction): every stem flip runs through its full cone and the
// per-output flip words are kept, so FaultOutputs can compose any
// fault's faulty outputs.  All groups are live.  Capture propagates
// every faulty stem through its full cone after its trace, so no
// dominator chains are needed, and the per-fault detect-at-stem words
// come from the detection writer with an all-ones mask.
func (e *Engine) SimulateChunkOutputs(inputWords []uint64, det []uint64) {
	c := e.plan.c
	v := e.simulateGood(inputWords)
	nOut := len(c.Outputs)
	e.poDiff = grow(e.poDiff, len(e.plan.ffr.Stems)*nOut)
	e.local = grow(e.local, len(e.plan.faults)*ChunkBlocks)
	e.goodOut = grow(e.goodOut, nOut)
	for i, id := range c.Outputs {
		e.goodOut[i] = v[id]
	}

	full := e.plan.code.fullCones()
	ones := widesim.Ones()
	for si, grp := range e.plan.part.Groups {
		if len(grp) == 0 {
			continue
		}
		e.sim.Trace(e.stems, si)
		po := e.poDiff[si*nOut : (si+1)*nOut]
		e.captureStem(v, full, si, po)
		var acc widesim.Vec
		for _, x := range po {
			for l := range acc {
				acc[l] |= x[l]
			}
		}
		detectWords(v, e.recs, grp, &ones, e.local)
		for _, fi := range grp {
			k := int(fi) * ChunkBlocks
			for l, a := range acc {
				det[k+l] = e.local[k+l] & a
			}
		}
	}
}

// captureStem propagates a flip of stem si through its compiled full
// cone and records every output's flip vector in po.
func (e *Engine) captureStem(g []widesim.Vec, full *widesim.Regions, si int, po []widesim.Vec) {
	clear(po)
	e.sim.Propagate(full, si)
	f := e.sim.Faulty()
	outs := e.plan.c.Outputs
	for _, oi := range full.Outputs(si) {
		o := outs[oi]
		for l := range po[oi] {
			po[oi][l] = f[o][l] ^ g[o][l]
		}
	}
}

// FaultOutputs writes fault fi's faulty output words in lane l of the
// last capture chunk into out, one word per primary output: on the
// patterns where the fault effect reaches the stem, each output flips
// exactly where the stem flip reached it.
func (e *Engine) FaultOutputs(fi, lane int, out []uint64) {
	si := int(e.plan.part.GroupOf[fi])
	nOut := len(e.goodOut)
	l := e.local[fi*ChunkBlocks+lane]
	po := e.poDiff[si*nOut : (si+1)*nOut]
	for i := range e.goodOut {
		out[i] = e.goodOut[i][lane] ^ (l & po[i][lane])
	}
}

// GoodOutputWords writes the good output words of lane l of the last
// capture chunk into dst, one word per primary output.
func (e *Engine) GoodOutputWords(lane int, dst []uint64) {
	for i := range e.goodOut {
		dst[i] = e.goodOut[i][lane]
	}
}
