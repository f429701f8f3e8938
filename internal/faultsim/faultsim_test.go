package faultsim

import (
	"context"
	"math"
	"testing"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/netlist"
	"protest/internal/pattern"
)

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func c17(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := netlist.ParseString(c17Bench, "c17")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// measure runs the FFR detection measurement of (c, faults).
func measure(t *testing.T, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, n int, opt Options) *Result {
	t.Helper()
	res, err := NewPlan(c, faults).MeasureDetection(context.Background(), gen, n, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// curve runs the FFR coverage curve of (c, faults).
func curve(t *testing.T, c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, cps []int, opt Options) []CoveragePoint {
	t.Helper()
	pts, err := NewPlan(c, faults).CoverageCurve(context.Background(), gen, cps, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// Brute-force oracle: simulate the faulty circuit explicitly by
// rebuilding node values for one pattern with the fault applied.
func oracleDetects(c *circuit.Circuit, f fault.Fault, in []bool) bool {
	good := evalWithFault(c, fault.Fault{Gate: -2, Pin: -2}, in) // no fault
	bad := evalWithFault(c, f, in)
	for i := range good {
		if good[i] != bad[i] {
			return true
		}
	}
	return false
}

func evalWithFault(c *circuit.Circuit, f fault.Fault, in []bool) []bool {
	vals := make([]bool, c.NumNodes())
	for i, id := range c.Inputs {
		vals[id] = in[i]
	}
	applyStem := func(id circuit.NodeID) {
		if f.Pin == fault.StemPin && f.Gate == id {
			vals[id] = f.StuckAt
		}
	}
	for _, id := range c.Inputs {
		applyStem(id)
	}
	for _, id := range c.TopoOrder() {
		n := c.Node(id)
		if n.IsInput {
			continue
		}
		ins := make([]bool, len(n.Fanin))
		for pin, fin := range n.Fanin {
			v := vals[fin]
			if f.Gate == id && f.Pin == pin {
				v = f.StuckAt
			}
			ins[pin] = v
		}
		if n.Op == 0 {
			continue
		}
		vals[id] = evalOp(n, ins)
		applyStem(id)
	}
	out := make([]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		out[i] = vals[id]
	}
	return out
}

func evalOp(n *circuit.Node, in []bool) bool {
	if n.Table != nil {
		return n.Table.Eval(in)
	}
	return logicEval(n, in)
}

func logicEval(n *circuit.Node, in []bool) bool {
	// Mirror logic.Eval without importing it twice.
	switch n.Op.String() {
	case "AND":
		v := true
		for _, b := range in {
			v = v && b
		}
		return v
	case "NAND":
		v := true
		for _, b := range in {
			v = v && b
		}
		return !v
	case "OR":
		v := false
		for _, b := range in {
			v = v || b
		}
		return v
	case "NOR":
		v := false
		for _, b := range in {
			v = v || b
		}
		return !v
	case "XOR":
		v := false
		for _, b := range in {
			v = v != b
		}
		return v
	case "XNOR":
		v := false
		for _, b := range in {
			v = v != b
		}
		return !v
	case "NOT":
		return !in[0]
	case "BUF":
		return in[0]
	case "CONST0":
		return false
	case "CONST1":
		return true
	}
	panic("unknown op " + n.Op.String())
}

// The bit-parallel fault simulator must agree with the brute-force
// oracle on every fault and every input pattern of c17.
func TestSimulatorMatchesOracle(t *testing.T) {
	c := c17(t)
	faults := fault.Universe(c)
	s := New(c)
	det := make([]uint64, len(faults))

	// All 32 patterns in one block.
	if err := bitsim.Exhaustive(5, func(words []uint64, _ uint64, _ int) {
		s.SimulateBlock(words, faults, det)
	}); err != nil {
		t.Fatal(err)
	}

	for fi, f := range faults {
		for r := 0; r < 32; r++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = r>>i&1 == 1
			}
			want := oracleDetects(c, f, in)
			got := det[fi]>>r&1 == 1
			if got != want {
				t.Fatalf("fault %v pattern %05b: got %v want %v", f.Name(c), r, got, want)
			}
		}
	}
}

func TestExhaustiveDetection(t *testing.T) {
	c := c17(t)
	faults := fault.Collapse(c)
	counts, err := ExhaustiveDetection(c, faults)
	if err != nil {
		t.Fatal(err)
	}
	// c17 is fully testable: every collapsed fault must be detectable.
	for i, f := range faults {
		if counts[i] == 0 {
			t.Errorf("fault %v undetectable, but c17 is fully testable", f.Name(c))
		}
		if counts[i] > 32 {
			t.Errorf("fault %v count %d > 32", f.Name(c), counts[i])
		}
	}
}

func TestMeasureDetection(t *testing.T) {
	c := c17(t)
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 123)
	res := measure(t, c, faults, gen, 6400, Options{})
	if res.Applied != 6400 {
		t.Fatalf("applied = %d", res.Applied)
	}
	// With 6400 uniform patterns every c17 fault is detected many times;
	// P_SIM must approximate the exact detection probability.
	exact, err := ExhaustiveDetection(c, faults)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		pExact := float64(exact[i]) / 32
		pSim := res.PSim(i)
		if math.Abs(pSim-pExact) > 0.05 {
			t.Errorf("fault %v: P_SIM=%v exact=%v", f.Name(c), pSim, pExact)
		}
	}
	if res.Coverage() != 1.0 {
		t.Errorf("coverage = %v, want 1.0", res.Coverage())
	}
}

func TestMeasureDetectionPartialBlock(t *testing.T) {
	c := c17(t)
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 5)
	res := measure(t, c, faults, gen, 10, Options{}) // non-multiple of 64
	if res.Applied != 10 {
		t.Fatalf("applied = %d", res.Applied)
	}
	for i := range faults {
		if res.Detected[i] > 10 {
			t.Errorf("fault %d detected %d > 10 times", i, res.Detected[i])
		}
	}
}

func TestCoverageCurveMonotone(t *testing.T) {
	c := c17(t)
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 77)
	pts := curve(t, c, faults, gen, []int{1, 2, 4, 8, 16, 32, 64, 128}, Options{})
	if len(pts) != 8 {
		t.Fatalf("curve has %d points", len(pts))
	}
	prev := -1.0
	for _, pt := range pts {
		if pt.Coverage < prev {
			t.Errorf("coverage not monotone at %d patterns: %v < %v", pt.Patterns, pt.Coverage, prev)
		}
		prev = pt.Coverage
	}
	last := pts[len(pts)-1]
	if last.Coverage < 99.9 {
		t.Errorf("c17 should reach full coverage in 128 patterns, got %.1f%%", last.Coverage)
	}
}

// Fault dropping must not change the final coverage relative to
// no-dropping measurement.
func TestCoverageMatchesMeasure(t *testing.T) {
	c := c17(t)
	faults := fault.Collapse(c)
	genA := pattern.NewUniform(len(c.Inputs), 99)
	genB := pattern.NewUniform(len(c.Inputs), 99)
	res := measure(t, c, faults, genA, 128, Options{})
	pts := curve(t, c, faults, genB, []int{128}, Options{})
	if math.Abs(res.Coverage()*100-pts[0].Coverage) > 1e-9 {
		t.Errorf("coverage mismatch: measure=%v curve=%v", res.Coverage()*100, pts[0].Coverage)
	}
}

func TestExhaustiveDetectionRefusesHuge(t *testing.T) {
	b := circuit.NewBuilder("big")
	ins := b.InputBus("x", 21)
	g := b.And("g", ins...)
	b.MarkOutput(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExhaustiveDetection(c, fault.Universe(c)); err == nil {
		t.Error("21 inputs must be refused")
	}
}

// Sanity: simulating a constant-undetectable fault yields zero counts.
func TestUndetectableFault(t *testing.T) {
	// y = OR(a, NOT a) is constant 1: s-a-1 on y is undetectable.
	cc, err := netlist.ParseString(`
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`, "taut")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := cc.ByName("y")
	f := fault.Fault{Gate: y, Pin: fault.StemPin, StuckAt: true}
	counts, err := ExhaustiveDetection(cc, []fault.Fault{f})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Errorf("tautology s-a-1 detected %d times", counts[0])
	}
}

var _ = bitsim.New // keep import if unused in some build configurations
