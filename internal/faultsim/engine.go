package faultsim

import (
	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/logic"
)

// Engine is the FFR-partitioned fault simulator.  Per 64-pattern block
// it runs the good simulation once, then per fanout-free region:
//
//  1. critical-path-traces *backwards* from the region stem, computing
//     for every member node the exact word of patterns on which a flip
//     at that node reaches the stem (inside an FFR there is a single
//     path and no reconvergence, so the trace is exact);
//  2. forward-propagates a flip of the *stem* once, stopping at the
//     stem's immediate dominator, where the remaining observability is
//     the dominator's own (already computed) observability word;
//  3. intersects each member fault's activation word with its traced
//     path sensitization and the stem observability.
//
// Per-fault work is therefore O(1) words instead of a cone
// re-simulation, and per-block work is O(gates + Σ stem regions)
// instead of O(faults × cone).  The result is bit-identical to the
// naive single-fault propagation engine: every word is an exact
// per-pattern boolean computation, not an approximation.
//
// An Engine owns only scratch state; the structural work lives in the
// shared immutable Plan.  Engines are not safe for concurrent use —
// give each goroutine its own via NewEngine.
type Engine struct {
	plan *Plan
	good *bitsim.Simulator

	sens    []uint64 // per node: path sensitization to its FFR stem
	obs     []uint64 // per stem index: stem observability word
	need    []bool   // per stem index: required this block
	fvals   []uint64 // faulty values of the current stem propagation
	changed []bool   // nodes deviating in the current stem propagation
	dirty   []circuit.NodeID
	pinbuf  []uint64 // per-pin sensitization scratch
	prebuf  []uint64 // prefix scratch for n-ary pin sensitization
	evalbuf []uint64 // gate-input gather scratch

	// Capture (BIST) state, allocated on first SimulateBlockOutputs.
	local   []uint64   // per fault: detect-at-stem word of the last capture block
	poDiff  [][]uint64 // per stem index: per-output flip words
	stemDet []uint64   // per stem index: OR over poDiff
	goodOut []uint64   // good output words of the last capture block
}

// NewEngine creates an engine over the shared plan.
func NewEngine(plan *Plan) *Engine {
	c := plan.c
	maxFanin := plan.maxFanin
	return &Engine{
		plan:    plan,
		good:    bitsim.New(c),
		sens:    make([]uint64, c.NumNodes()),
		obs:     make([]uint64, len(plan.ffr.Stems)),
		need:    make([]bool, len(plan.ffr.Stems)),
		fvals:   make([]uint64, c.NumNodes()),
		changed: make([]bool, c.NumNodes()),
		dirty:   make([]circuit.NodeID, 0, 64),
		pinbuf:  make([]uint64, maxFanin),
		prebuf:  make([]uint64, maxFanin),
		evalbuf: make([]uint64, maxFanin),
	}
}

// Plan returns the shared plan.
func (e *Engine) Plan() *Plan { return e.plan }

// SimulateBlock runs one block of 64 patterns and fills det[i] with the
// word of patterns detecting fault i.  When liveGroups is non-nil,
// FFR groups marked false are skipped entirely (their det words are
// left untouched) — the fault-dropping fast path: a dropped group
// costs nothing, not even its backward trace.
func (e *Engine) SimulateBlock(inputWords []uint64, det []uint64, liveGroups []bool) {
	if err := e.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the block from the plan's circuit
	}
	e.good.Run()
	g := e.good.Values()
	e.markNeeds(liveGroups)
	e.sensSweep(g)

	// Stem observabilities, in reverse topological stem order so that
	// each dominator composition reads already-computed downstream
	// observabilities.
	ffr := e.plan.ffr
	for si := len(ffr.Stems) - 1; si >= 0; si-- {
		if !e.need[si] {
			continue
		}
		s := ffr.Stems[si]
		if e.plan.c.Node(s).IsOutput {
			e.obs[si] = ^uint64(0)
			continue
		}
		e.obs[si] = e.propagateStem(g, si, s)
	}

	for si, grp := range e.plan.part.Groups {
		if liveGroups != nil && !liveGroups[si] {
			continue
		}
		for _, fi := range grp {
			det[fi] = e.faultWord(g, int(fi)) & e.obs[si]
		}
	}
}

// faultWord computes the fault's local detectability at its FFR stem:
// activation & path sensitization (& the faulty pin's local
// sensitization for a branch fault).  Every kind is a conditional
// stuck-at: the base activation (site differs from the capture value)
// is intersected with the kind's condition word, and the stuck-at
// propagation machinery downstream is untouched.
func (e *Engine) faultWord(g []uint64, fi int) uint64 {
	in := &e.plan.info[fi]
	act := g[in.site] ^ in.stuck
	switch in.kind {
	case fault.KindBridgeAND, fault.KindBridgeOR:
		// The short only drives the victim while the aggressor holds
		// the dominating value (== the faulty capture value).
		act &^= g[in.aggr] ^ in.stuck
	case fault.KindSlowRise, fault.KindSlowFall:
		// Launch/capture pairs are adjacent patterns inside this
		// 64-pattern block: the site must have held the opposite (==
		// faulty) value on the previous pattern.  Bit 0 has no launch
		// pattern and never detects.
		act &^= (g[in.site] << 1) ^ in.stuck
		act &^= 1
	}
	if act == 0 {
		return 0
	}
	if in.pin == fault.StemPin {
		return act & e.sens[in.site]
	}
	return act & e.pinSens1(g, in.gate, int(in.pin)) & e.sens[in.gate]
}

// markNeeds marks the FFR groups whose stem observability this block
// must produce: every live group plus, transitively, the FFR of each
// needed stem's immediate dominator (the dominator composition reads
// sens[idom] and obs[stem-of-idom]).  The chain always points to
// higher stem indices, so one ascending sweep closes it.
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

// sensSweep critical-path-traces every needed FFR: one reverse
// topological sweep over the region tree, multiplying (ANDing) pin
// sensitization words from the stem down to every member.
func (e *Engine) sensSweep(g []uint64) {
	c := e.plan.c
	ffr := e.plan.ffr
	for si := range ffr.Stems {
		if !e.need[si] {
			continue
		}
		members := ffr.Members[si]
		e.sens[members[0]] = ^uint64(0) // the stem observes itself
		for _, id := range members {
			n := &c.Nodes[id]
			if n.IsInput || len(n.Fanin) == 0 {
				continue
			}
			sout := e.sens[id]
			ps := e.pinSensAll(g, id, n)
			for pin, f := range n.Fanin {
				if ffr.StemIndex[f] == int32(si) {
					// In-region fanin: f's unique fanout is this gate.
					e.sens[f] = sout & ps[pin]
				}
			}
		}
	}
}

// propagateStem forward-simulates a flip of stem s through its
// dominator-bounded region and returns the stem observability word.
func (e *Engine) propagateStem(g []uint64, si int, s circuit.NodeID) uint64 {
	ffr := e.plan.ffr
	d := ffr.Idom[s]
	if d == circuit.InvalidNode {
		return 0
	}
	region := e.plan.regions[si]
	sinkMode := d == circuit.DomSink
	var acc uint64
	e.fvals[s] = ^g[s]
	e.changed[s] = true
	dirty := append(e.dirty[:0], s)
	c := e.plan.c
	for _, id := range region {
		n := &c.Nodes[id]
		needs := false
		for _, f := range n.Fanin {
			if e.changed[f] {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		v := e.evalChanged(g, id, n)
		if v == g[id] {
			continue // flip absorbed here
		}
		e.fvals[id] = v
		e.changed[id] = true
		dirty = append(dirty, id)
		if sinkMode && n.IsOutput {
			acc |= v ^ g[id]
		}
	}
	var res uint64
	if sinkMode {
		res = acc
	} else if e.changed[d] {
		// Dominator cut: beyond d the deviation is exactly a flip of d
		// on these patterns, whose fate is d's own observability.
		res = (e.fvals[d] ^ g[d]) & e.sens[d] & e.obs[ffr.StemIndex[d]]
	}
	for _, id := range dirty {
		e.changed[id] = false
	}
	e.dirty = dirty[:0]
	return res
}

// evalChanged evaluates one gate with deviating fanins read from fvals
// and all others from the good values.
func (e *Engine) evalChanged(g []uint64, id circuit.NodeID, n *circuit.Node) uint64 {
	val := func(f circuit.NodeID) uint64 {
		if e.changed[f] {
			return e.fvals[f]
		}
		return g[f]
	}
	switch len(n.Fanin) {
	case 1:
		v := val(n.Fanin[0])
		switch n.Op {
		case logic.Buf, logic.And, logic.Or, logic.Xor:
			return v
		case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
			return ^v
		}
	case 2:
		a, b := val(n.Fanin[0]), val(n.Fanin[1])
		switch n.Op {
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
	buf := e.evalbuf[:len(n.Fanin)]
	for i, f := range n.Fanin {
		buf[i] = val(f)
	}
	if n.Op == logic.TableOp {
		return n.Table.EvalWord(buf)
	}
	return logic.EvalWord(n.Op, buf)
}

// pinSensAll fills, for every input pin of gate id, the word of
// patterns on which flipping that pin alone flips the gate output,
// with all other pins at their good values.
func (e *Engine) pinSensAll(g []uint64, id circuit.NodeID, n *circuit.Node) []uint64 {
	npins := len(n.Fanin)
	ps := e.pinbuf[:npins]
	switch n.Op {
	case logic.Xor, logic.Xnor:
		for i := range ps {
			ps[i] = ^uint64(0)
		}
		return ps
	case logic.Buf, logic.Not:
		ps[0] = ^uint64(0)
		return ps
	case logic.And, logic.Nand:
		if npins == 1 {
			ps[0] = ^uint64(0)
			return ps
		}
		if npins == 2 {
			ps[0] = g[n.Fanin[1]]
			ps[1] = g[n.Fanin[0]]
			return ps
		}
		// prefix/suffix AND products of the other pins.
		pre := e.prebuf[:npins]
		acc := ^uint64(0)
		for i, f := range n.Fanin {
			pre[i] = acc
			acc &= g[f]
		}
		suf := ^uint64(0)
		for i := npins - 1; i >= 0; i-- {
			ps[i] = pre[i] & suf
			suf &= g[n.Fanin[i]]
		}
		return ps
	case logic.Or, logic.Nor:
		if npins == 1 {
			ps[0] = ^uint64(0)
			return ps
		}
		if npins == 2 {
			ps[0] = ^g[n.Fanin[1]]
			ps[1] = ^g[n.Fanin[0]]
			return ps
		}
		pre := e.prebuf[:npins]
		acc := uint64(0)
		for i, f := range n.Fanin {
			pre[i] = acc
			acc |= g[f]
		}
		suf := uint64(0)
		for i := npins - 1; i >= 0; i-- {
			ps[i] = ^(pre[i] | suf)
			suf |= g[n.Fanin[i]]
		}
		return ps
	}
	// General gates (truth tables): flip-evaluate each pin.
	for i := range ps {
		ps[i] = e.flipEval(g, id, n, i)
	}
	return ps
}

// pinSens1 computes the sensitization word of a single pin (the branch
// fault path), equivalent to pinSensAll(...)[pin].
func (e *Engine) pinSens1(g []uint64, id circuit.NodeID, pin int) uint64 {
	n := &e.plan.c.Nodes[id]
	switch n.Op {
	case logic.Xor, logic.Xnor, logic.Buf, logic.Not:
		return ^uint64(0)
	case logic.And, logic.Nand:
		v := ^uint64(0)
		for i, f := range n.Fanin {
			if i != pin {
				v &= g[f]
			}
		}
		return v
	case logic.Or, logic.Nor:
		v := uint64(0)
		for i, f := range n.Fanin {
			if i != pin {
				v |= g[f]
			}
		}
		return ^v
	}
	return e.flipEval(g, id, n, pin)
}

// flipEval evaluates the gate with one pin complemented and XORs
// against the good output: the exact boolean difference word.
func (e *Engine) flipEval(g []uint64, id circuit.NodeID, n *circuit.Node, pin int) uint64 {
	buf := e.evalbuf[:len(n.Fanin)]
	for i, f := range n.Fanin {
		buf[i] = g[f]
	}
	buf[pin] = ^buf[pin]
	var v uint64
	if n.Op == logic.TableOp {
		v = n.Table.EvalWord(buf)
	} else {
		v = logic.EvalWord(n.Op, buf)
	}
	return v ^ g[id]
}

// ---------------------------------------------------------------------
// Capture mode: faulty output words for response compaction (BIST).

// SimulateBlockOutputs runs one block like SimulateBlock but propagates
// every faulty stem through its *full* cone, recording the per-output
// flip words, so that the exact faulty response of any fault can be
// composed afterwards with FaultOutputs.  det[i] receives the
// detecting-pattern word of fault i (identical to SimulateBlock).
func (e *Engine) SimulateBlockOutputs(inputWords []uint64, det []uint64) {
	c := e.plan.c
	if err := e.good.SetInputs(inputWords); err != nil {
		panic(err) // callers size the block from the plan's circuit
	}
	e.good.Run()
	g := e.good.Values()
	nOut := len(c.Outputs)
	if e.poDiff == nil {
		e.poDiff = make([][]uint64, len(e.plan.ffr.Stems))
		e.stemDet = make([]uint64, len(e.plan.ffr.Stems))
		e.local = make([]uint64, len(e.plan.faults))
		e.goodOut = make([]uint64, nOut)
	}
	e.good.OutputWords(e.goodOut)
	// Capture propagates every faulty stem through its full cone, so no
	// dominator chains are needed: only regions carrying faults matter.
	for si := range e.need {
		e.need[si] = len(e.plan.part.Groups[si]) > 0
	}
	e.sensSweep(g)

	full := e.plan.ensureFullRegions()
	ffr := e.plan.ffr
	for si, grp := range e.plan.part.Groups {
		if len(grp) == 0 {
			continue
		}
		if e.poDiff[si] == nil {
			e.poDiff[si] = make([]uint64, nOut)
		}
		e.captureStem(g, si, ffr.Stems[si], full[si], e.poDiff[si])
		acc := uint64(0)
		for _, w := range e.poDiff[si] {
			acc |= w
		}
		e.stemDet[si] = acc
		for _, fi := range grp {
			l := e.faultWord(g, int(fi))
			e.local[fi] = l
			det[fi] = l & acc
		}
	}
}

// captureStem propagates a stem flip through the full cone, recording
// the flip word of every primary output.
func (e *Engine) captureStem(g []uint64, si int, s circuit.NodeID, region []circuit.NodeID, po []uint64) {
	for i := range po {
		po[i] = 0
	}
	c := e.plan.c
	e.fvals[s] = ^g[s]
	e.changed[s] = true
	dirty := append(e.dirty[:0], s)
	if oi := e.plan.outIdx[s]; oi >= 0 {
		po[oi] = ^uint64(0)
	}
	for _, id := range region {
		n := &c.Nodes[id]
		needs := false
		for _, f := range n.Fanin {
			if e.changed[f] {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		v := e.evalChanged(g, id, n)
		if v == g[id] {
			continue
		}
		e.fvals[id] = v
		e.changed[id] = true
		dirty = append(dirty, id)
		if oi := e.plan.outIdx[id]; oi >= 0 {
			po[oi] = v ^ g[id]
		}
	}
	for _, id := range dirty {
		e.changed[id] = false
	}
	e.dirty = dirty[:0]
}

// FaultOutputs composes the faulty output words of fault fi from the
// last SimulateBlockOutputs block: on the patterns where the fault
// effect reaches the stem, each output flips exactly where the stem
// flip reached it.
func (e *Engine) FaultOutputs(fi int, out []uint64) {
	si := e.plan.info[fi].group
	l := e.local[fi]
	po := e.poDiff[si]
	for i, gw := range e.goodOut {
		out[i] = gw ^ (l & po[i])
	}
}

// GoodOutputWords copies the good output words of the last
// SimulateBlockOutputs block.
func (e *Engine) GoodOutputWords(dst []uint64) {
	copy(dst, e.goodOut)
}
