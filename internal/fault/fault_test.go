package fault

import (
	"testing"

	"protest/internal/circuit"
	"protest/internal/netlist"
)

func smallCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := netlist.ParseString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
n = AND(a, b)
y = NOT(n)
`, "small")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUniverseSize(t *testing.T) {
	c := smallCircuit(t)
	fs := Universe(c)
	// 4 nodes * 2 stem + (2 AND pins + 1 NOT pin) * 2 branch = 8 + 6 = 14.
	if len(fs) != 14 {
		t.Fatalf("universe = %d faults, want 14", len(fs))
	}
}

func TestUniverseDistinct(t *testing.T) {
	c := smallCircuit(t)
	seen := make(map[Fault]bool)
	for _, f := range Universe(c) {
		if seen[f] {
			t.Fatalf("duplicate fault %v", f)
		}
		seen[f] = true
	}
}

func TestCollapseSmaller(t *testing.T) {
	c := smallCircuit(t)
	u := Universe(c)
	col := Collapse(c)
	if len(col) >= len(u) {
		t.Fatalf("collapse did not shrink: %d >= %d", len(col), len(u))
	}
	// Every collapsed fault is from the universe.
	all := make(map[Fault]bool)
	for _, f := range u {
		all[f] = true
	}
	for _, f := range col {
		if !all[f] {
			t.Errorf("collapsed fault %v not in universe", f)
		}
	}
}

func TestSite(t *testing.T) {
	c := smallCircuit(t)
	n, _ := c.ByName("n")
	a, _ := c.ByName("a")
	stem := Fault{Gate: n, Pin: StemPin, StuckAt: false}
	if stem.Site(c) != n {
		t.Error("stem site should be the node itself")
	}
	branch := Fault{Gate: n, Pin: 0, StuckAt: true}
	if branch.Site(c) != a {
		t.Error("branch site should be the driving node")
	}
	if !stem.IsStem() || branch.IsStem() {
		t.Error("IsStem wrong")
	}
}

func TestNameAndString(t *testing.T) {
	c := smallCircuit(t)
	n, _ := c.ByName("n")
	f := Fault{Gate: n, Pin: 0, StuckAt: true}
	if got := f.Name(c); got != "n.0/sa1" {
		t.Errorf("Name = %q", got)
	}
	f2 := Fault{Gate: n, Pin: StemPin, StuckAt: false}
	if got := f2.Name(c); got != "n/sa0" {
		t.Errorf("Name = %q", got)
	}
	if f.String() == "" || f2.String() == "" {
		t.Error("String must be non-empty")
	}
}

// On a fanout-free two-level circuit, detection-equivalent classes must
// each retain at least one representative: the collapsed list of the
// small circuit must still distinguish all testable behaviours.  We
// check the known class structure by hand.
func TestCollapseKeepsClassRepresentatives(t *testing.T) {
	c := smallCircuit(t)
	col := Collapse(c)
	// The AND s-a-0 class {a/sa0? no — branch pins, n/sa0, y/sa1...}
	// For this circuit: n = AND(a,b), y = NOT(n).
	// Class: {n.0 sa0, n.1 sa0, n sa0, y.0 sa0, y sa1} all equivalent.
	// After collapsing at least one member must survive.
	n, _ := c.ByName("n")
	y, _ := c.ByName("y")
	members := []Fault{
		{Gate: n, Pin: 0}, {Gate: n, Pin: 1}, {Gate: n, Pin: StemPin},
		{Gate: y, Pin: 0}, {Gate: y, Pin: StemPin, StuckAt: true},
	}
	found := false
	have := make(map[Fault]bool)
	for _, f := range col {
		have[f] = true
	}
	for _, m := range members {
		if have[m] {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("collapse removed the entire AND-sa0 class; kept %v", col)
	}
}

// Collapsing a fanout circuit must keep stem and branch faults separate.
func TestCollapseKeepsFanoutBranches(t *testing.T) {
	c, err := netlist.ParseString(`
INPUT(s)
OUTPUT(y)
OUTPUT(z)
y = AND(s, s2)
z = OR(s, s2)
s2 = NOT(s)
`, "fan")
	if err != nil {
		t.Fatal(err)
	}
	col := Collapse(c)
	have := make(map[Fault]bool)
	for _, f := range col {
		have[f] = true
	}
	y, _ := c.ByName("y")
	z, _ := c.ByName("z")
	// s drives y.0 and z.0 (plus the NOT): branches on the fanout stem
	// must survive collapsing (they are not equivalent to the stem).
	if !have[Fault{Gate: y, Pin: 0, StuckAt: false}] {
		t.Error("AND branch sa0 on fanout stem must be kept")
	}
	if !have[Fault{Gate: z, Pin: 0, StuckAt: true}] {
		t.Error("OR branch sa1 on fanout stem must be kept")
	}
}

func TestCollapseDeterministic(t *testing.T) {
	c := smallCircuit(t)
	a := Collapse(c)
	b := Collapse(c)
	if len(a) != len(b) {
		t.Fatal("nondeterministic collapse size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic collapse order")
		}
	}
}
