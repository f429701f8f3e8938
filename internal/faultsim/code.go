package faultsim

import (
	"sync"

	"protest/internal/circuit"
	"protest/internal/widesim"
)

// circuitCode is the compiled form of a circuit that the engines of
// every plan over it run: the good simulation and the per-stem streams
// of the detection pass (critical-path trace, dominator-bounded region
// and observability composition, see widesim.Stems), compiled on first
// simulation, and the full fanout cones of capture mode, compiled on
// first capture.  A shard coordinator that only dispatches compiles
// nothing.  The code depends only on the circuit, not on the fault
// list, so the plans of every fault model over one circuit share one
// instance, attached to the circuit itself.
type circuitCode struct {
	c *circuit.Circuit

	once  sync.Once
	prog  *widesim.Program
	stems *widesim.Stems

	// cones holds the complete fanout cone of every stem, compiled,
	// for response capture (BIST), where every reached primary output
	// matters and the dominator cut does not apply.
	conesOnce sync.Once
	cones     *widesim.Regions
}

// codeKey keys a circuit's circuitCode in circuit.Derived.
type codeKey struct{}

// compiled returns the shared compiled form of c.
func compiled(c *circuit.Circuit) *circuitCode {
	return c.Derived(codeKey{}, func() any { return &circuitCode{c: c} }).(*circuitCode)
}

// streams returns the compiled program and per-stem streams, compiling
// them on first use.
func (cc *circuitCode) streams() (*widesim.Program, *widesim.Stems) {
	cc.once.Do(func() {
		cc.prog = widesim.Compile(cc.c)
		cc.stems = cc.prog.CompileStems()
	})
	return cc.prog, cc.stems
}

// fullCones returns the compiled full fanout cone of every stem,
// compiling it on first use.
func (cc *circuitCode) fullCones() *widesim.Regions {
	cc.conesOnce.Do(func() {
		prog, _ := cc.streams()
		cc.cones = prog.CompileCones()
	})
	return cc.cones
}
