// Package circuit provides the combinational gate-level circuit model
// used throughout PROTEST: a directed acyclic graph of logic nodes with
// primary inputs and outputs, following the paper's notation
// S = <I, O, K, B> (inputs, outputs, nodes, components).
package circuit

import (
	"fmt"
	"sort"
	"sync"

	"protest/internal/logic"
)

// NodeID indexes a node within a circuit.  IDs are dense, stable and
// assigned in creation order, which is also a valid topological order
// for circuits constructed through Builder.
type NodeID int32

// InvalidNode is the zero-value-adjacent sentinel for "no node".
const InvalidNode NodeID = -1

// Node is one vertex of the circuit graph: either a primary input or a
// logic component ("element of B") whose output defines the node value.
type Node struct {
	// Name is the unique signal name of the node's output.
	Name string
	// Op is the node's operator; primary inputs have Op == logic.Invalid.
	Op logic.Op
	// Table holds the explicit function for TableOp nodes.
	Table *logic.TruthTable
	// Fanin lists the nodes driving this node's inputs, in pin order.
	Fanin []NodeID
	// Fanout lists the nodes this node drives (each appearance of this
	// node in a successor's fanin contributes one entry).
	Fanout []NodeID
	// Level is the longest-path depth from the primary inputs (inputs
	// are level 0).
	Level int32
	// IsInput and IsOutput mark primary inputs and outputs.  A node may
	// be both (an input directly observed as output) and an output may
	// still have internal fanout.
	IsInput  bool
	IsOutput bool
}

// Circuit is an immutable combinational circuit.  Construct one with a
// Builder or by parsing a netlist; do not mutate the exported slices.
type Circuit struct {
	Name    string
	Nodes   []Node
	Inputs  []NodeID // primary inputs, in declaration order
	Outputs []NodeID // primary outputs, in declaration order

	byName   map[string]NodeID
	order    []NodeID // topological order, inputs first
	maxLevel int32
	inputPos map[NodeID]int // node -> index into Inputs

	ffrOnce sync.Once // guards the lazily built FFR/dominator index
	ffr     *FFR

	fpOnce sync.Once // guards the lazily computed structural fingerprint
	fp     uint64

	derivedMu sync.Mutex // guards derived
	derived   map[any]*derivedEntry
}

// derivedEntry is one lazily built value of Circuit.Derived.
type derivedEntry struct {
	once sync.Once
	v    any
}

// Derived returns the value build computes for key, calling build at
// most once per circuit and key; concurrent callers of one key wait for
// the first build.  Packages attach structural indexes that depend only
// on the circuit this way, so every consumer of one circuit shares them
// and they live exactly as long as it.  Keys should be values of an
// unexported type of the calling package.
func (c *Circuit) Derived(key any, build func() any) any {
	c.derivedMu.Lock()
	e := c.derived[key]
	if e == nil {
		if c.derived == nil {
			c.derived = make(map[any]*derivedEntry)
		}
		e = &derivedEntry{}
		c.derived[key] = e
	}
	c.derivedMu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// NumNodes returns the total number of nodes (inputs + gates).
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumGates returns the number of logic components.
func (c *Circuit) NumGates() int { return len(c.Nodes) - len(c.Inputs) }

// MaxLevel returns the depth of the circuit.
func (c *Circuit) MaxLevel() int { return int(c.maxLevel) }

// Node returns the node with the given ID.
func (c *Circuit) Node(id NodeID) *Node { return &c.Nodes[id] }

// ByName looks a node up by its signal name.
func (c *Circuit) ByName(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// TopoOrder returns the node IDs in topological order (fanin before
// fanout).  The returned slice must not be modified.
func (c *Circuit) TopoOrder() []NodeID { return c.order }

// InputIndex returns the position of node id within Inputs, or -1 if the
// node is not a primary input.
func (c *Circuit) InputIndex(id NodeID) int {
	if pos, ok := c.inputPos[id]; ok {
		return pos
	}
	return -1
}

// Transistors estimates the CMOS transistor count of the circuit, the
// size measure used in Tables 7 and 8 of the paper.
func (c *Circuit) Transistors() int {
	total := 0
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.IsInput {
			continue
		}
		total += logic.Transistors(n.Op, len(n.Fanin))
	}
	return total
}

// Stats summarises the circuit structure.
type Stats struct {
	Inputs, Outputs, Gates int
	GatesByOp              map[logic.Op]int
	MaxLevel               int
	Transistors            int
	FanoutStems            int // nodes with fanout >= 2
}

// Stats computes structural statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Inputs:      len(c.Inputs),
		Outputs:     len(c.Outputs),
		Gates:       c.NumGates(),
		GatesByOp:   make(map[logic.Op]int),
		MaxLevel:    c.MaxLevel(),
		Transistors: c.Transistors(),
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if !n.IsInput {
			s.GatesByOp[n.Op]++
		}
		if len(n.Fanout) >= 2 {
			s.FanoutStems++
		}
	}
	return s
}

func (s Stats) String() string {
	ops := make([]logic.Op, 0, len(s.GatesByOp))
	for op := range s.GatesByOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	str := fmt.Sprintf("inputs=%d outputs=%d gates=%d levels=%d transistors=%d stems=%d",
		s.Inputs, s.Outputs, s.Gates, s.MaxLevel, s.Transistors, s.FanoutStems)
	for _, op := range ops {
		str += fmt.Sprintf(" %v=%d", op, s.GatesByOp[op])
	}
	return str
}

// FaninCone returns the set of nodes in the transitive fanin of id
// (excluding id itself), as a sorted slice.  maxDepth < 0 means
// unbounded; otherwise only nodes within maxDepth edges are included.
func (c *Circuit) FaninCone(id NodeID, maxDepth int) []NodeID {
	seen := make(map[NodeID]int) // node -> shortest depth discovered
	var out []NodeID
	type item struct {
		id    NodeID
		depth int
	}
	queue := []item{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth >= 0 && cur.depth >= maxDepth {
			continue
		}
		for _, f := range c.Nodes[cur.id].Fanin {
			if _, ok := seen[f]; ok {
				continue
			}
			seen[f] = cur.depth + 1
			out = append(out, f)
			queue = append(queue, item{f, cur.depth + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FanoutCone returns the transitive fanout of id (excluding id), sorted.
func (c *Circuit) FanoutCone(id NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	queue := []NodeID{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, f := range c.Nodes[cur].Fanout {
			if seen[f] {
				continue
			}
			seen[f] = true
			out = append(out, f)
			queue = append(queue, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PinIndex returns the pin positions (possibly several) at which src
// appears in dst's fanin.
func (c *Circuit) PinIndex(dst, src NodeID) []int {
	var pins []int
	for i, f := range c.Nodes[dst].Fanin {
		if f == src {
			pins = append(pins, i)
		}
	}
	return pins
}
