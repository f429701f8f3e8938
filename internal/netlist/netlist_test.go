package netlist_test

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"

	"protest/internal/bitsim"
	"protest/internal/circuits"
	"protest/internal/logic"
	"protest/internal/netlist"
	"protest/internal/pattern"
)

const c17Bench = `
# c17 from the ISCAS-85 suite
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

func TestParseC17(t *testing.T) {
	c, err := netlist.ParseString(c17Bench, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 || c.NumGates() != 6 {
		t.Fatalf("c17 shape: in=%d out=%d gates=%d", len(c.Inputs), len(c.Outputs), c.NumGates())
	}
	g22, ok := c.ByName("G22")
	if !ok {
		t.Fatal("G22 missing")
	}
	if c.Node(g22).Op != logic.Nand {
		t.Errorf("G22 op = %v", c.Node(g22).Op)
	}
}

func TestParseOutOfOrderDefinitions(t *testing.T) {
	// y defined before its fanin z.
	src := `
INPUT(a)
OUTPUT(y)
y = AND(a, z)
z = NOT(a)
`
	c, err := netlist.ParseString(src, "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 {
		t.Errorf("gates = %d", c.NumGates())
	}
}

// deepChain is a NOT chain of n gates whose deepest gate, g0, sorts
// first, so assembly recurses through the whole chain from its first
// root.  With cycle, the bottom gate reads g0 instead of the input.
func deepChain(n int, cycle bool) string {
	var sb strings.Builder
	sb.WriteString("INPUT(a)\nOUTPUT(g0)\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "g%d = NOT(g%d)\n", i, i+1)
	}
	bottom := "a"
	if cycle {
		bottom = "g0"
	}
	fmt.Fprintf(&sb, "g%d = NOT(%s)\n", n-1, bottom)
	return sb.String()
}

// longLine is a one-gate netlist with a comment line of n bytes.
func longLine(n int) string {
	return "INPUT(a)\nOUTPUT(y)\n#" + strings.Repeat("x", n-1) + "\ny = NOT(a)\n"
}

// TestParseLargeInputs: both parsers accept lines past bufio's default
// 64 KiB token and chains tens of thousands of gates deep, and still
// reject a line past 1 MiB and a cycle closed at a deep chain's bottom.
func TestParseLargeInputs(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		gates int    // accepted: the circuit's gate count
		is    error  // rejected: the error's cause
		msg   string // rejected: a substring of the error
	}{
		{name: "line over 64 KiB", src: longLine(64<<10 + 1), gates: 1},
		{name: "line over 1 MiB", src: longLine(1<<20 + 1), is: bufio.ErrTooLong},
		{name: "deep chain", src: deepChain(40000, false), gates: 40000},
		{name: "cycle under deep chain", src: deepChain(40000, true), msg: "combinational cycle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			circ, err := netlist.ParseString(c.src, c.name)
			info, scanErr := netlist.ParseScanString(c.src, c.name)
			if c.gates > 0 {
				if err != nil || scanErr != nil {
					t.Fatalf("Parse: %v, ParseScan: %v", err, scanErr)
				}
				if circ.NumGates() != c.gates || info.Core.NumGates() != c.gates {
					t.Fatalf("gates = %d (Parse), %d (ParseScan), want %d",
						circ.NumGates(), info.Core.NumGates(), c.gates)
				}
				return
			}
			for _, err := range []error{err, scanErr} {
				switch {
				case err == nil:
					t.Fatal("expected a parse error")
				case c.is != nil && !errors.Is(err, c.is):
					t.Fatalf("error %v, want %v", err, c.is)
				case !strings.Contains(err.Error(), c.msg):
					t.Fatalf("error %q does not mention %q", err, c.msg)
				}
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"cycle", "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n"},
		{"undefined", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(nope)\nx = NOT(a)\n"},
		{"dff", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"},
		{"bad op", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"},
		{"double definition", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"},
		{"input redefined", "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n"},
		{"garbage", "INPUT(a)\nOUTPUT(y)\nthis is not a statement\n"},
		{"empty arg", "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n"},
		{"malformed paren", "INPUT(a\nOUTPUT(y)\ny = NOT(a)\n"},
		{"duplicate input", "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"},
		{"empty name", "INPUT(a)\nOUTPUT(y)\n = NOT(a)\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := netlist.ParseString(c.src, c.name); err == nil {
				t.Errorf("%s: expected parse error", c.name)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := netlist.ParseString("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "t")
	pe, ok := err.(*netlist.ParseError)
	if !ok {
		t.Fatalf("want *netlist.ParseError, got %T: %v", err, err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("error text %q", pe.Error())
	}
}

func TestRoundTrip(t *testing.T) {
	c, err := netlist.ParseString(c17Bench, "c17")
	if err != nil {
		t.Fatal(err)
	}
	text, err := netlist.String(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := netlist.ParseString(text, "c17rt")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if c2.NumGates() != c.NumGates() || len(c2.Inputs) != len(c.Inputs) || len(c2.Outputs) != len(c.Outputs) {
		t.Error("round trip changed circuit shape")
	}
	// Same gate ops per name.
	for i := range c.Nodes {
		n := &c.Nodes[i]
		id2, ok := c2.ByName(n.Name)
		if !ok {
			t.Fatalf("node %q lost in round trip", n.Name)
		}
		if c2.Node(id2).Op != n.Op {
			t.Errorf("node %q op changed: %v -> %v", n.Name, n.Op, c2.Node(id2).Op)
		}
	}
}

func TestParseConstAndComments(t *testing.T) {
	src := `
# leading comment
INPUT(a)   # trailing comment
OUTPUT(y)
one = CONST1()
y = AND(a, one)
`
	c, err := netlist.ParseString(src, "const")
	if err != nil {
		t.Fatal(err)
	}
	one, ok := c.ByName("one")
	if !ok {
		t.Fatal("one missing")
	}
	if c.Node(one).Op != logic.Const1 {
		t.Errorf("one op = %v", c.Node(one).Op)
	}
}

func TestParseAliases(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\nx = BUFF(a)\ny = INV(x)\n"
	c, err := netlist.ParseString(src, "alias")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.ByName("x")
	if c.Node(x).Op != logic.Buf {
		t.Errorf("BUFF parsed as %v", c.Node(x).Op)
	}
}

// Round-trip property over random circuits: parse(write(c)) preserves
// the function (checked by simulation on random patterns).
func TestRoundTripRandomCircuits(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		c := circuits.Random(circuits.RandomOptions{Inputs: 7, Gates: 60, Outputs: 5, Seed: seed})
		text, err := netlist.String(c)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := netlist.ParseString(text, "rt")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(c2.Outputs) != len(c.Outputs) {
			t.Fatalf("seed %d: output count changed", seed)
		}
		rng := pattern.NewRNG(seed + 99)
		for trial := 0; trial < 50; trial++ {
			in := make([]bool, 7)
			for i := range in {
				in[i] = rng.Uint64()&1 == 1
			}
			a := bitsim.EvalSingle(c, in)
			// Outputs in c2 may be ordered differently only if names
			// changed; match by name.
			for oi, id := range c.Outputs {
				name := c.Node(id).Name
				id2, ok := c2.ByName(name)
				if !ok {
					t.Fatalf("seed %d: output %q lost", seed, name)
				}
				b := bitsim.EvalSingle(c2, in)
				pos2 := -1
				for j, o2 := range c2.Outputs {
					if o2 == id2 {
						pos2 = j
						break
					}
				}
				if pos2 < 0 {
					t.Fatalf("seed %d: %q no longer an output", seed, name)
				}
				if a[oi] != b[pos2] {
					t.Fatalf("seed %d: function changed at output %q", seed, name)
				}
			}
		}
	}
}
