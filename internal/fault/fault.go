// Package fault defines the gate-level fault universes PROTEST
// computes detection probabilities for — single stuck-at faults plus
// the pluggable bridging and transition models selected through Model
// — together with structural fault collapsing.
//
// Faults live on *pins*: a node's output (the stem) or an individual
// gate input (a branch).  Stem and branch faults differ as soon as the
// stem has fanout, which is exactly where testability analysis gets
// interesting.
//
// Every kind reduces to a *conditional* stuck-at fault: the faulty pin
// carries the fixed capture value StuckAt exactly on the patterns
// where the kind's activation condition holds (always for stuck-at,
// "aggressor at its dominating value" for bridges, "site held the
// opposite value on the previous pattern of the 64-pattern block" for
// transitions).  That reduction is what lets every simulation engine
// reuse the stuck-at propagation machinery unchanged.
package fault

import (
	"fmt"
	"sort"

	"protest/internal/circuit"
	"protest/internal/logic"
)

// Kind enumerates the supported fault kinds.  The zero value is
// KindStuckAt, so a Fault literal that only sets Gate/Pin/StuckAt
// remains a plain stuck-at fault.
type Kind uint8

const (
	// KindStuckAt is the classic single stuck-at fault.
	KindStuckAt Kind = iota
	// KindBridgeAND is a wired-AND short: the victim line (the fault's
	// stem site) is pulled to 0 whenever the aggressor line carries 0.
	// StuckAt is false by construction (the faulty capture value).
	KindBridgeAND
	// KindBridgeOR is a wired-OR short: the victim line is pulled to 1
	// whenever the aggressor carries 1.  StuckAt is true.
	KindBridgeOR
	// KindSlowRise is a slow-to-rise transition fault: a 0→1 change of
	// the site between the launch pattern and the capture pattern is
	// missed, so the capture pattern sees 0 (StuckAt false).
	KindSlowRise
	// KindSlowFall is the dual slow-to-fall fault (capture sees 1).
	KindSlowFall
)

// IsBridge reports whether the kind is one of the bridging kinds.
func (k Kind) IsBridge() bool { return k == KindBridgeAND || k == KindBridgeOR }

// IsTransition reports whether the kind is one of the transition
// (delay) kinds.
func (k Kind) IsTransition() bool { return k == KindSlowRise || k == KindSlowFall }

// String returns the short suffix used in fault names: "sa0"/"sa1" for
// stuck-at (combined with the stuck value), "band"/"bor" for bridges,
// "str"/"stf" for transitions.
func (k Kind) String() string {
	switch k {
	case KindBridgeAND:
		return "band"
	case KindBridgeOR:
		return "bor"
	case KindSlowRise:
		return "str"
	case KindSlowFall:
		return "stf"
	default:
		return "sa"
	}
}

// Fault is a single gate-level fault of any supported Kind.  The zero
// Kind keeps the historical meaning: a plain stuck-at fault described
// by Gate/Pin/StuckAt alone.
type Fault struct {
	// Gate is the node owning the faulty pin.  For a stem fault this is
	// the driving node itself; for a branch fault it is the gate whose
	// input pin is stuck.  Bridge faults are always stem faults on the
	// victim node.
	Gate circuit.NodeID
	// Pin is the input pin index for a branch fault, or -1 for a stem
	// fault on Gate's output.
	Pin int
	// StuckAt is the faulty capture value the site carries on activated
	// patterns (false = 0, true = 1).  For stuck-at faults that is the
	// classic stuck value; bridge and transition kinds fix it by
	// construction (KindBridgeAND/KindSlowRise capture 0,
	// KindBridgeOR/KindSlowFall capture 1).
	StuckAt bool
	// Kind selects the fault model; the zero value is KindStuckAt.
	Kind Kind
	// Aggressor is the other line of a bridge (meaningful only when
	// Kind.IsBridge(); it must be left 0 otherwise so Fault values stay
	// comparable as map keys).
	Aggressor circuit.NodeID
}

// StemPin marks a stem (output) fault in the Pin field.
const StemPin = -1

// IsStem reports whether the fault sits on a node output.
func (f Fault) IsStem() bool { return f.Pin == StemPin }

// Site returns the node whose signal value is perturbed: the gate
// itself for a stem fault, the driving fanin node for a branch fault
// (the branch carries that node's value into the gate).
func (f Fault) site(c *circuit.Circuit) circuit.NodeID {
	if f.IsStem() {
		return f.Gate
	}
	return c.Node(f.Gate).Fanin[f.Pin]
}

// Site is the exported form of site.
func (f Fault) Site(c *circuit.Circuit) circuit.NodeID { return f.site(c) }

// String formats the fault with raw node IDs (e.g. "node#3/sa1",
// "node#7~node#9/band").  It needs no circuit and therefore cannot
// resolve signal names; use Name for the named form.
func (f Fault) String() string {
	if f.Kind.IsBridge() {
		return fmt.Sprintf("node#%d~node#%d/%s", f.Gate, f.Aggressor, f.Kind)
	}
	pin := ""
	if !f.IsStem() {
		pin = fmt.Sprintf(".pin%d", f.Pin)
	}
	if f.Kind.IsTransition() {
		return fmt.Sprintf("node#%d%s/%s", f.Gate, pin, f.Kind)
	}
	v := 0
	if f.StuckAt {
		v = 1
	}
	return fmt.Sprintf("node#%d%s/sa%d", f.Gate, pin, v)
}

// Name formats the fault with signal names from the circuit
// (e.g. "G10/sa1", "G10~G11/band", "G10.2/str").  Names depend on
// signal names, not node numbering, so they survive netlist
// round-trips.
func (f Fault) Name(c *circuit.Circuit) string {
	if f.Kind.IsBridge() {
		return fmt.Sprintf("%s~%s/%s", c.Node(f.Gate).Name, c.Node(f.Aggressor).Name, f.Kind)
	}
	pin := ""
	if !f.IsStem() {
		pin = fmt.Sprintf(".%d", f.Pin)
	}
	if f.Kind.IsTransition() {
		return fmt.Sprintf("%s%s/%s", c.Node(f.Gate).Name, pin, f.Kind)
	}
	v := 0
	if f.StuckAt {
		v = 1
	}
	return fmt.Sprintf("%s%s/sa%d", c.Node(f.Gate).Name, pin, v)
}

// Universe enumerates the complete single stuck-at fault list of the
// circuit: two faults per node output (stem) and two per gate input pin
// (branch).  Branch faults on fanout-free connections are structurally
// equivalent to the driver's stem faults and are included here; use
// Collapse to remove redundancies.
func Universe(c *circuit.Circuit) []Fault {
	var fs []Fault
	for id := range c.Nodes {
		n := &c.Nodes[id]
		nid := circuit.NodeID(id)
		fs = append(fs, Fault{Gate: nid, Pin: StemPin, StuckAt: false}, Fault{Gate: nid, Pin: StemPin, StuckAt: true})
		if n.IsInput {
			continue
		}
		for pin := range n.Fanin {
			fs = append(fs, Fault{Gate: nid, Pin: pin, StuckAt: false}, Fault{Gate: nid, Pin: pin, StuckAt: true})
		}
	}
	return fs
}

// Collapse performs structural equivalence collapsing and returns a
// reduced fault list that still covers every fault class:
//
//   - For AND/NAND gates, s-a-0 on any input is equivalent to s-a-0
//     (s-a-1 after inversion) on the output; dually for OR/NOR with
//     s-a-1.  The input fault representative is kept, the output one
//     dropped when possible.
//   - For NOT/BUF, both input faults are equivalent to output faults.
//   - A branch fault on a fanout-free connection is equivalent to the
//     driver's stem fault; the stem representative is kept.
//
// The collapsed list keeps deterministic order (sorted by gate, pin,
// stuck value).
func Collapse(c *circuit.Circuit) []Fault {
	drop := make(map[Fault]bool)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		nid := circuit.NodeID(id)
		if n.IsInput {
			continue
		}
		// Branch == stem when the driver has a single fanout and the
		// driver is not a primary output (a PO stem must stay
		// observable in its own right for reporting, but as a fault
		// class it is still equivalent; we keep the stem).
		for pin, src := range n.Fanin {
			if len(c.Node(src).Fanout) == 1 {
				drop[Fault{Gate: nid, Pin: pin, StuckAt: false}] = true
				drop[Fault{Gate: nid, Pin: pin, StuckAt: true}] = true
			}
		}
		switch n.Op {
		case logic.Buf:
			// Input faults equivalent to output faults (same polarity).
			drop[Fault{Gate: nid, Pin: 0, StuckAt: false}] = true
			drop[Fault{Gate: nid, Pin: 0, StuckAt: true}] = true
		case logic.Not:
			drop[Fault{Gate: nid, Pin: 0, StuckAt: false}] = true
			drop[Fault{Gate: nid, Pin: 0, StuckAt: true}] = true
		case logic.And:
			// in s-a-0 ≡ out s-a-0: keep one input representative,
			// drop output s-a-0.
			drop[Fault{Gate: nid, Pin: StemPin, StuckAt: false}] = true
		case logic.Nand:
			drop[Fault{Gate: nid, Pin: StemPin, StuckAt: true}] = true
		case logic.Or:
			drop[Fault{Gate: nid, Pin: StemPin, StuckAt: true}] = true
		case logic.Nor:
			drop[Fault{Gate: nid, Pin: StemPin, StuckAt: false}] = true
		}
	}
	var out []Fault
	for _, f := range Universe(c) {
		if drop[f] {
			continue
		}
		// The equivalence classes above assume the controlled fault is
		// represented by a kept input fault; when every input branch
		// fault was itself dropped (single-fanout drivers), fall back
		// to keeping the stem fault.
		out = append(out, f)
	}
	out = repairClasses(c, out, drop)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Gate != b.Gate {
			return a.Gate < b.Gate
		}
		if a.Pin != b.Pin {
			return a.Pin < b.Pin
		}
		return !a.StuckAt && b.StuckAt
	})
	return out
}

// repairClasses re-adds a stem fault if collapsing removed both the stem
// fault and all equivalent branch representatives.
func repairClasses(c *circuit.Circuit, kept []Fault, drop map[Fault]bool) []Fault {
	have := make(map[Fault]bool, len(kept))
	for _, f := range kept {
		have[f] = true
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		nid := circuit.NodeID(id)
		if n.IsInput {
			continue
		}
		var stemVal bool
		var covered bool
		switch n.Op {
		case logic.And:
			stemVal = false
		case logic.Nand:
			stemVal = true
		case logic.Or:
			stemVal = true
		case logic.Nor:
			stemVal = false
		default:
			continue
		}
		inVal := false
		if n.Op == logic.Or || n.Op == logic.Nor {
			inVal = true
		}
		for pin := range n.Fanin {
			if have[Fault{Gate: nid, Pin: pin, StuckAt: inVal}] {
				covered = true
				break
			}
			// Branch collapsed onto driver stem: the driver stem fault
			// with matching polarity covers the class too.
			src := n.Fanin[pin]
			if len(c.Node(src).Fanout) == 1 && have[Fault{Gate: src, Pin: StemPin, StuckAt: inVal}] {
				covered = true
				break
			}
		}
		if !covered && !have[Fault{Gate: nid, Pin: StemPin, StuckAt: stemVal}] {
			f := Fault{Gate: nid, Pin: StemPin, StuckAt: stemVal}
			kept = append(kept, f)
			have[f] = true
		}
	}
	return kept
}
