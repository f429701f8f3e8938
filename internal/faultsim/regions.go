package faultsim

import (
	"fmt"
	"slices"
	"sync"

	"protest/internal/circuit"
	"protest/internal/widesim"
)

// stemRegions holds the propagation regions of a circuit's stems and
// their compiled two-bank form (widesim.Regions).  Regions depend only
// on the circuit, not on the fault list, so the plans of every fault
// model over one circuit share one instance, attached to the circuit
// itself.  The detection node lists and the line-table layout are
// built with it; the compiled detection regions on first simulation,
// the compiled full cones on first capture.
type stemRegions struct {
	c *circuit.Circuit

	// The engines keep one lane vector per line: slots 0 to
	// NumNodes-1 are the nodes, and pin p of node id is slot
	// pinOff[id]+p.  numLines counts every slot.
	pinOff   []int32
	numLines int

	// det[si] lists the nodes a flip at Stems[si] must be propagated
	// through for *detection*: the nodes strictly between the stem and
	// its immediate dominator, plus the dominator itself, in ascending
	// (topological) ID order.  For sink-dominated stems it is the full
	// fanout cone; nil for primary-output stems (observed directly) and
	// for stems with no path to an output.
	det [][]circuit.NodeID

	wideOnce sync.Once
	prog     *widesim.Program // the good simulation of every engine
	detCode  *widesim.Regions // det, compiled

	// fullCode holds the complete fanout cone of every stem, compiled,
	// for response capture (BIST), where every reached primary output
	// matters and the dominator cut does not apply.
	fullOnce sync.Once
	fullCode *widesim.Regions
}

// regionsKey keys a circuit's stemRegions in circuit.Derived.
type regionsKey struct{}

// circuitRegions returns the stem regions of c, built on first use and
// shared by every plan of c.
func circuitRegions(c *circuit.Circuit) *stemRegions {
	return c.Derived(regionsKey{}, func() any { return newStemRegions(c) }).(*stemRegions)
}

func newStemRegions(c *circuit.Circuit) *stemRegions {
	ffr := c.FFR()
	r := &stemRegions{
		c:      c,
		det:    make([][]circuit.NodeID, len(ffr.Stems)),
		pinOff: make([]int32, c.NumNodes()),
	}
	r.numLines = c.NumNodes()
	for id := range c.Nodes {
		r.pinOff[id] = int32(r.numLines)
		r.numLines += len(c.Nodes[id].Fanin)
	}
	marked := make([]bool, c.NumNodes())
	var buf []circuit.NodeID
	for si, s := range ffr.Stems {
		if c.Node(s).IsOutput {
			continue // observed directly, no propagation needed
		}
		switch d := ffr.Idom[s]; d {
		case circuit.InvalidNode:
			// No path to an output: unobservable.
		case circuit.DomSink:
			buf = cone(c, s, circuit.InvalidNode, marked, buf[:0])
			r.det[si] = slices.Clone(buf)
		default:
			buf = cone(c, s, d, marked, buf[:0])
			// The dominator is a cut: it terminates every propagation
			// path, so it must be structurally reachable from the stem.
			if len(buf) == 0 || buf[len(buf)-1] != d {
				panic(fmt.Sprintf("faultsim: region of stem %d does not reach dominator %d", s, d))
			}
			r.det[si] = slices.Clone(buf)
		}
	}
	return r
}

// wide returns the compiled program and detection regions of the
// engines, compiling them on first use.
func (r *stemRegions) wide() (*widesim.Program, *widesim.Regions) {
	r.wideOnce.Do(func() {
		r.prog = widesim.Compile(r.c)
		r.detCode = r.prog.CompileRegions(r.c.FFR().Stems, r.det)
	})
	return r.prog, r.detCode
}

// fullWide returns the full fanout cone of every stem compiled for the
// engines' capture mode, building it on first use.
func (r *stemRegions) fullWide() *widesim.Regions {
	r.fullOnce.Do(func() {
		prog, _ := r.wide()
		stems := r.c.FFR().Stems
		full := make([][]circuit.NodeID, len(stems))
		marked := make([]bool, r.c.NumNodes())
		var buf []circuit.NodeID
		for si, s := range stems {
			buf = cone(r.c, s, circuit.InvalidNode, marked, buf[:0])
			full[si] = slices.Clone(buf)
		}
		r.fullCode = prog.CompileRegions(stems, full)
	})
	return r.fullCode
}

// cone appends the fanout cone of s to out in ascending ID order, not
// scanning beyond stop (pass InvalidNode for the full cone).  s itself
// is excluded.  Node IDs are topological, so a forward sweep marking
// nodes with a marked fanin is exact forward reachability; marked is
// caller-provided scratch (all false on entry and exit).  Callers keep
// exactly sized copies: regions live as long as their circuit.
func cone(c *circuit.Circuit, s, stop circuit.NodeID, marked []bool, out []circuit.NodeID) []circuit.NodeID {
	end := circuit.NodeID(c.NumNodes() - 1)
	if stop != circuit.InvalidNode {
		end = stop
	}
	marked[s] = true
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
