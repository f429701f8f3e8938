package faultsim

import (
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
)

// Plan is the immutable, shareable part of the FFR fault-simulation
// engine: the fault list partitioned by fanout-free region, per-fault
// injection metadata, and the per-stem propagation regions bounded by
// the stem's immediate dominator (shared with the circuit's other
// plans).  Build it once per (circuit, fault list) and attach any
// number of Engines — each Engine owns only per-block scratch, so
// parallel workers share one Plan the same way concurrent evaluators
// share one core.Program.  AcquireEngine pools
// the engines, so concurrent measurement calls over one shared Plan
// reuse warmed-up scratch instead of allocating per call.
type Plan struct {
	c      *circuit.Circuit
	ffr    *circuit.FFR
	part   *fault.FFRPartition
	faults []fault.Fault
	info   []faultInfo

	pool sync.Pool // *Engine

	maxFanin int // largest gate fanin (at least 1): engine scratch size

	// regs holds the circuit's stem regions, shared by every plan of
	// the circuit; regions is regs.det, read by the narrow engine, and
	// regs.pinOff lays out the wide engines' line tables.
	regs    *stemRegions
	regions [][]circuit.NodeID

	outIdx []int32 // node -> primary-output position, or -1
}

// faultInfo is the per-fault injection recipe resolved at plan time.
type faultInfo struct {
	site  circuit.NodeID // node whose value activates the fault
	gate  circuit.NodeID // gate owning the faulty pin (== site for stems)
	aggr  circuit.NodeID // bridge aggressor node (kind.IsBridge() only)
	pin   int32          // fault.StemPin for stem faults
	line  int32          // wide line-table slot: site, or the faulty gate pin
	group int32          // FFR index (position in ffr.Stems)
	kind  fault.Kind     // activation condition selector
	stuck uint64         // faulty capture value replicated across the word
}

// NewPlan partitions the fault list by FFR and resolves each fault's
// injection recipe.  The stem regions come from the circuit
// (circuitRegions), built by the first plan of the circuit.
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
	p.regs = circuitRegions(c)
	p.regions = p.regs.det
	for i, f := range faults {
		in := faultInfo{
			site:  f.Site(c),
			gate:  f.Gate,
			pin:   int32(f.Pin),
			group: p.part.GroupOf[i],
			kind:  f.Kind,
		}
		in.line = int32(in.site)
		if !f.IsStem() {
			in.line = p.regs.pinOff[f.Gate] + int32(f.Pin)
		}
		if f.StuckAt {
			in.stuck = ^uint64(0)
		}
		if f.Kind.IsBridge() {
			in.aggr = f.Aggressor
		}
		p.info[i] = in
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

// ensureFullRegions returns the capture-mode (full cone) regions.
func (p *Plan) ensureFullRegions() [][]circuit.NodeID {
	return p.regs.fullCones()
}

// Circuit returns the planned circuit.
func (p *Plan) Circuit() *circuit.Circuit { return p.c }

// Faults returns the planned fault list (shared, do not modify).
func (p *Plan) Faults() []fault.Fault { return p.faults }

// NumGroups returns the number of FFR groups (including empty ones).
func (p *Plan) NumGroups() int { return p.part.NumGroups() }

// GroupOf returns the FFR group index of fault i.
func (p *Plan) GroupOf(i int) int { return int(p.part.GroupOf[i]) }
