package faultsim

import (
	"sync"

	"protest/internal/circuit"
	"protest/internal/fault"
)

// Plan is the immutable, shareable part of the FFR fault-simulation
// engine: the fault list partitioned by fanout-free region, and per
// fault the value slots its detection reads in the circuit's compiled
// streams (shared with the circuit's other plans), resolved on first
// simulation.  Build it once per (circuit, fault list) and bind any
// number of engines to it (AcquireEngine) — each engine owns only
// per-chunk scratch, so parallel workers share one Plan the same way
// concurrent evaluators share one core.Program.
type Plan struct {
	c      *circuit.Circuit
	ffr    *circuit.FFR
	part   *fault.FFRPartition
	faults []fault.Fault
	code   *circuitCode

	recsOnce sync.Once
	recs     []faultRec // per fault, see records
}

// faultRec is a fault's detection recipe, resolved against the
// circuit's compiled streams (Plan.records).  The assembly counting
// kernel reads it (count_amd64.s), so its layout is fixed: three int32 slots,
// the activation class as an int32, then the stuck word, 24 bytes in
// all.
type faultRec struct {
	site  int32  // value slot of the node whose value activates the fault
	line  int32  // value slot of the fault's line (widesim.Stems.Line): the site, or the faulty gate pin
	aggr  int32  // value slot of the bridge aggressor (actBridge only)
	act   int32  // activation condition: actPlain, actBridge or actTransition
	stuck uint64 // faulty capture value replicated across the word
}

// The activation conditions of the fault kinds: every kind is a
// conditional stuck-at (see detectWords).
const (
	actPlain      = iota // stuck-at
	actBridge            // KindBridgeAND, KindBridgeOR
	actTransition        // KindSlowRise, KindSlowFall
)

// NewPlan partitions the fault list by FFR.  The circuit's compiled
// streams, which every plan of the circuit shares, and the plan's
// fault records are built on first simulation.
func NewPlan(c *circuit.Circuit, faults []fault.Fault) *Plan {
	return &Plan{
		c:      c,
		ffr:    c.FFR(),
		part:   fault.GroupByFFR(c, faults),
		faults: faults,
		code:   compiled(c),
	}
}

// records returns the detection recipe of every fault, resolving them
// against the circuit's compiled streams on first use.
func (p *Plan) records() []faultRec {
	p.recsOnce.Do(func() {
		_, stems := p.code.streams()
		p.recs = make([]faultRec, len(p.faults))
		for i, f := range p.faults {
			r := faultRec{
				site: int32(f.Site(p.c)),
				line: stems.Line(f.Gate, f.Pin),
			}
			if f.StuckAt {
				r.stuck = ^uint64(0)
			}
			switch {
			case f.Kind.IsBridge():
				r.act, r.aggr = actBridge, int32(f.Aggressor)
			case f.Kind.IsTransition():
				r.act = actTransition
			}
			p.recs[i] = r
		}
	})
	return p.recs
}

// Circuit returns the planned circuit.
func (p *Plan) Circuit() *circuit.Circuit { return p.c }

// Faults returns the planned fault list (shared, do not modify).
func (p *Plan) Faults() []fault.Fault { return p.faults }
