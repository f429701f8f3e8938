package faultsim

import (
	"fmt"
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/widesim"
)

// Plan is the immutable, shareable part of the FFR fault-simulation
// engine: the fault list partitioned by fanout-free region, per-fault
// injection metadata, and the per-stem propagation regions bounded by
// the stem's immediate dominator.  Build it once per (circuit, fault
// list) and attach any number of Engines — each Engine owns only
// per-block scratch, so parallel workers share one Plan the same way
// concurrent evaluators share one core.Program.  AcquireEngine pools
// the engines, so concurrent measurement calls over one shared Plan
// reuse warmed-up scratch instead of allocating per call.
type Plan struct {
	c      *circuit.Circuit
	ffr    *circuit.FFR
	part   *fault.FFRPartition
	faults []fault.Fault
	info   []faultInfo

	pool sync.Pool // *Engine

	// The compiled levelized program the wide engines of every width
	// run, built on first use.  The engines themselves come from the
	// package-level widePools.
	wideOnce sync.Once
	wideProg *widesim.Program

	maxFanin int // largest gate fanin (at least 1): engine scratch size

	// regions[si] lists the nodes a flip at Stems[si] must be propagated
	// through for *detection*: the nodes strictly between the stem and
	// its immediate dominator, plus the dominator itself, in ascending
	// (topological) ID order.  For sink-dominated stems it is the full
	// fanout cone; nil for primary-output stems (observed directly) and
	// for stems with no path to an output.
	regions [][]circuit.NodeID

	// fullRegions[si] is the complete fanout cone of Stems[si], built
	// lazily for response capture (BIST), where every reached primary
	// output matters and the dominator cut does not apply.
	fullOnce    sync.Once
	fullRegions [][]circuit.NodeID

	outIdx []int32 // node -> primary-output position, or -1
}

// faultInfo is the per-fault injection recipe resolved at plan time.
type faultInfo struct {
	site  circuit.NodeID // node whose value activates the fault
	gate  circuit.NodeID // gate owning the faulty pin (== site for stems)
	aggr  circuit.NodeID // bridge aggressor node (kind.IsBridge() only)
	pin   int32          // fault.StemPin for stem faults
	group int32          // FFR index (position in ffr.Stems)
	kind  fault.Kind     // activation condition selector
	stuck uint64         // faulty capture value replicated across the word
}

// NewPlan partitions the fault list by FFR and precomputes the
// dominator-bounded propagation region of every stem.
func NewPlan(c *circuit.Circuit, faults []fault.Fault) *Plan {
	ffr := c.FFR()
	p := &Plan{
		c:        c,
		ffr:      ffr,
		part:     fault.GroupByFFR(c, faults),
		faults:   faults,
		info:     make([]faultInfo, len(faults)),
		outIdx:   make([]int32, c.NumNodes()),
		maxFanin: 1,
	}
	for i := range c.Nodes {
		p.maxFanin = max(p.maxFanin, len(c.Nodes[i].Fanin))
	}
	for i := range p.outIdx {
		p.outIdx[i] = -1
	}
	for i, out := range c.Outputs {
		p.outIdx[out] = int32(i)
	}
	for i, f := range faults {
		in := faultInfo{
			site:  f.Site(c),
			gate:  f.Gate,
			pin:   int32(f.Pin),
			group: p.part.GroupOf[i],
			kind:  f.Kind,
		}
		if f.StuckAt {
			in.stuck = ^uint64(0)
		}
		if f.Kind.IsBridge() {
			in.aggr = f.Aggressor
		}
		p.info[i] = in
	}

	p.regions = make([][]circuit.NodeID, len(ffr.Stems))
	marked := make([]bool, c.NumNodes())
	for si, s := range ffr.Stems {
		if c.Node(s).IsOutput {
			continue // observed directly, no propagation needed
		}
		switch d := ffr.Idom[s]; d {
		case circuit.InvalidNode:
			// No path to an output: unobservable.
		case circuit.DomSink:
			p.regions[si] = p.cone(s, circuit.InvalidNode, marked)
		default:
			r := p.cone(s, d, marked)
			// The dominator is a cut: it terminates every propagation
			// path, so it must be structurally reachable from the stem.
			if len(r) == 0 || r[len(r)-1] != d {
				panic(fmt.Sprintf("faultsim: region of stem %d does not reach dominator %d", s, d))
			}
			p.regions[si] = r
		}
	}
	p.pool.New = func() any { return NewEngine(p) }
	return p
}

// AcquireEngine returns a pooled engine over this plan.  The caller
// owns it until Release; engines must not be shared between
// goroutines.
func (p *Plan) AcquireEngine() *Engine {
	return p.pool.Get().(*Engine)
}

// Release returns the engine to its plan's pool.  The caller must not
// use it afterwards.
func (e *Engine) Release() {
	e.plan.pool.Put(e)
}

// cone collects the fanout cone of s in ascending ID order, not
// scanning beyond stop (pass InvalidNode for the full cone).  s itself
// is excluded.  Node IDs are topological, so a forward sweep marking
// nodes with a marked fanin is exact forward reachability; marked is
// caller-provided scratch (all false on entry and exit).
func (p *Plan) cone(s, stop circuit.NodeID, marked []bool) []circuit.NodeID {
	c := p.c
	end := circuit.NodeID(c.NumNodes() - 1)
	if stop != circuit.InvalidNode {
		end = stop
	}
	marked[s] = true
	var out []circuit.NodeID
	for id := s + 1; id <= end; id++ {
		for _, f := range c.Nodes[id].Fanin {
			if marked[f] {
				marked[id] = true
				out = append(out, id)
				break
			}
		}
	}
	marked[s] = false
	for _, id := range out {
		marked[id] = false
	}
	return out
}

// ensureFullRegions builds the capture-mode (full cone) regions once.
func (p *Plan) ensureFullRegions() [][]circuit.NodeID {
	p.fullOnce.Do(func() {
		p.fullRegions = make([][]circuit.NodeID, len(p.ffr.Stems))
		marked := make([]bool, p.c.NumNodes())
		for si, s := range p.ffr.Stems {
			if len(p.part.Groups[si]) == 0 {
				continue // capture is only ever run for faulty regions
			}
			p.fullRegions[si] = p.cone(s, circuit.InvalidNode, marked)
		}
	})
	return p.fullRegions
}

// Circuit returns the planned circuit.
func (p *Plan) Circuit() *circuit.Circuit { return p.c }

// Faults returns the planned fault list (shared, do not modify).
func (p *Plan) Faults() []fault.Fault { return p.faults }

// NumGroups returns the number of FFR groups (including empty ones).
func (p *Plan) NumGroups() int { return p.part.NumGroups() }

// GroupOf returns the FFR group index of fault i.
func (p *Plan) GroupOf(i int) int { return int(p.part.GroupOf[i]) }
