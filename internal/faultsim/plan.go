package faultsim

import (
	"protest/internal/circuit"
	"protest/internal/fault"
)

// Plan is the immutable, shareable part of the FFR fault-simulation
// engine: the fault list partitioned by fanout-free region, per-fault
// injection metadata, and the per-stem propagation regions bounded by
// the stem's immediate dominator (shared with the circuit's other
// plans).  Build it once per (circuit, fault list) and bind any number
// of wide engines to it (AcquireWideEngine) — each engine owns only
// per-chunk scratch, so parallel workers share one Plan the same way
// concurrent evaluators share one core.Program.
type Plan struct {
	c      *circuit.Circuit
	ffr    *circuit.FFR
	part   *fault.FFRPartition
	faults []fault.Fault
	info   []faultInfo

	maxFanin int // largest gate fanin (at least 1): engine scratch size

	// regs holds the circuit's stem regions, shared by every plan of
	// the circuit; regs.pinOff lays out the engines' line tables.
	regs *stemRegions
}

// faultInfo is the per-fault injection recipe resolved at plan time.
type faultInfo struct {
	site  circuit.NodeID // node whose value activates the fault
	gate  circuit.NodeID // gate owning the faulty pin (== site for stems)
	aggr  circuit.NodeID // bridge aggressor node (kind.IsBridge() only)
	pin   int32          // fault.StemPin for stem faults
	line  int32          // line-table slot: site, or the faulty gate pin
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
		maxFanin: 1,
		regs:     circuitRegions(c),
	}
	for i := range c.Nodes {
		p.maxFanin = max(p.maxFanin, len(c.Nodes[i].Fanin))
	}
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
	return p
}

// Circuit returns the planned circuit.
func (p *Plan) Circuit() *circuit.Circuit { return p.c }

// Faults returns the planned fault list (shared, do not modify).
func (p *Plan) Faults() []fault.Fault { return p.faults }
