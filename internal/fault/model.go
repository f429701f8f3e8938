package fault

import (
	"fmt"
	"sort"
	"strings"

	"protest/internal/circuit"
)

// Model names a fault universe — the pluggable layer every engine,
// oracle and service surface selects faults through.  The zero value
// ("") behaves as ModelStuckAt everywhere, so existing stuck-at
// callers and wire formats keep their meaning unchanged.
type Model string

const (
	// ModelStuckAt is the classic collapsed single stuck-at universe
	// (the default).
	ModelStuckAt Model = "stuck-at"
	// ModelBridging is the two-line bridging universe enumerated by
	// BridgeFaults: wired-AND and wired-OR shorts between same-level
	// neighbours of the levelized netlist.
	ModelBridging Model = "bridging"
	// ModelTransition is the gross-delay universe enumerated by
	// TransitionFaults: slow-to-rise/slow-to-fall faults on the
	// collapsed stuck-at sites with launch/capture two-pattern
	// semantics inside each 64-pattern block.
	ModelTransition Model = "transition"
)

// Models lists the supported fault models in canonical order.
func Models() []Model { return []Model{ModelStuckAt, ModelBridging, ModelTransition} }

// ParseModel normalizes a model name.  The empty string and
// "stuck-at" (also "stuckat", "saf") select ModelStuckAt;
// "bridging"/"bridge" select ModelBridging; "transition"/"tdf" select
// ModelTransition.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "stuck-at", "stuckat", "saf":
		return ModelStuckAt, nil
	case "bridging", "bridge":
		return ModelBridging, nil
	case "transition", "tdf":
		return ModelTransition, nil
	}
	return "", fmt.Errorf("fault: unknown fault model %q (want stuck-at, bridging or transition)", s)
}

// Normalize maps the zero value to ModelStuckAt and leaves every other
// value unchanged, so "" and "stuck-at" compare equal after it.
func (m Model) Normalize() Model {
	if m == "" {
		return ModelStuckAt
	}
	return m
}

// Valid reports whether the model is one of the supported universes
// (the zero value counts as stuck-at).
func (m Model) Valid() bool {
	switch m.Normalize() {
	case ModelStuckAt, ModelBridging, ModelTransition:
		return true
	}
	return false
}

// Faults enumerates and collapses the model's fault universe for the
// circuit.  Unknown models yield nil.  Like Collapse, the result is a
// deterministic function of the circuit, which is what lets a shard
// worker holding an equal circuit enumerate the coordinator's list.
func (m Model) Faults(c *circuit.Circuit) []Fault {
	switch m.Normalize() {
	case ModelStuckAt:
		return Collapse(c)
	case ModelBridging:
		return BridgeFaults(c)
	case ModelTransition:
		return TransitionFaults(c)
	}
	return nil
}

// BridgeFaults enumerates the two-line bridging universe drawn from a
// deterministic proximity heuristic over the levelized netlist: nodes
// on the same logic level, adjacent in signal-name order, are taken as
// physically routable neighbours, and each adjacent pair contributes a
// wired-AND and a wired-OR bridge in both victim/aggressor
// orientations (four faults per pair).  Bridge faults are stem faults
// on the victim; the aggressor is read from the fault-free circuit.
//
// Pairing strictly within one level guarantees neither line lies in
// the other's cone — levels increase along every path — so the
// fault-free aggressor value is always well defined (no feedback
// bridges).  The heuristic depends only on levels and signal names,
// so the set does not depend on node numbering.
func BridgeFaults(c *circuit.Circuit) []Fault {
	byLevel := make(map[int32][]circuit.NodeID)
	for id := range c.Nodes {
		lv := c.Nodes[id].Level
		byLevel[lv] = append(byLevel[lv], circuit.NodeID(id))
	}
	levels := make([]int32, 0, len(byLevel))
	for lv := range byLevel {
		levels = append(levels, lv)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	var out []Fault
	for _, lv := range levels {
		nodes := byLevel[lv]
		sort.Slice(nodes, func(i, j int) bool {
			return c.Node(nodes[i]).Name < c.Node(nodes[j]).Name
		})
		for i := 0; i+1 < len(nodes); i++ {
			v, a := nodes[i], nodes[i+1]
			out = append(out,
				Fault{Gate: v, Pin: StemPin, StuckAt: false, Kind: KindBridgeAND, Aggressor: a},
				Fault{Gate: v, Pin: StemPin, StuckAt: true, Kind: KindBridgeOR, Aggressor: a},
				Fault{Gate: a, Pin: StemPin, StuckAt: false, Kind: KindBridgeAND, Aggressor: v},
				Fault{Gate: a, Pin: StemPin, StuckAt: true, Kind: KindBridgeOR, Aggressor: v},
			)
		}
	}
	return out
}

// TransitionFaults derives the transition (gross-delay) universe from
// the collapsed stuck-at sites — the standard practice for delay test
// lists: every collapsed s-a-0 fault becomes a slow-to-rise fault at
// the same pin (a missed 0→1 launch/capture pair leaves the site at 0)
// and every s-a-1 fault a slow-to-fall fault.  No transition-specific
// collapsing is applied on top: stuck-at equivalence does not in
// general carry over to launch conditions, and reusing one shared site
// list keeps all three oracles and every shard worker on the same
// universe by construction.
func TransitionFaults(c *circuit.Circuit) []Fault {
	base := Collapse(c)
	out := make([]Fault, len(base))
	for i, f := range base {
		k := KindSlowRise
		if f.StuckAt {
			k = KindSlowFall
		}
		out[i] = Fault{Gate: f.Gate, Pin: f.Pin, StuckAt: f.StuckAt, Kind: k}
	}
	return out
}
