package netlist_test

import (
	"os"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/netlist"
)

// parsesBack fails t unless c renders and the rendering parses, under
// c's name, to a circuit equal to c.
func parsesBack(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	text, err := netlist.String(c)
	if err != nil {
		t.Fatalf("parsed circuit does not render: %v", err)
	}
	d, err := netlist.ParseString(text, c.Name)
	if err != nil {
		t.Fatalf("rendering does not parse: %v\n%s", err, text)
	}
	if !circuit.Equal(c, d) {
		t.Fatalf("rendering parses to another circuit:\n%s", text)
	}
}

// FuzzParse fuzzes the reader of client netlists (inline netlists of
// POST /v1/* and the CLI's -f): no text may panic it, and a text that
// parses must render to one that parses to an equal circuit.  The
// seeds are every registry circuit's rendering, c17, an out-of-order
// definition, comments, operator aliases and constants; they run with
// plain go test.  Run the fuzzer with
//
//	go test -fuzz '^FuzzParse$' -run '^$' ./internal/netlist
func FuzzParse(f *testing.F) {
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		text, err := netlist.String(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add(c17Bench)
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(g)\ng = BUF(a)\n")
	f.Add("# header\nINPUT(a) # trailing\n\n  INPUT (b)\nOUTPUT(y)\ny = nand(a, b)   # gate\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(a)\nz = xnor(y, b)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nOUTPUT(k)\nk = CONST1()\nz = CONST0()\ny = OR(a, z)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.ParseString(src, "fuzz")
		if err != nil {
			return
		}
		parsesBack(t, c)
	})
}

// FuzzParseScan fuzzes the scan-design reader: no text may panic it,
// and a text that parses gives one pseudo-input and one pseudo-output
// per scan cell and a core that parses back like FuzzParse's circuits.
// The seeds are s27 and small DFF netlists; they run with plain go
// test.  Run the fuzzer with
//
//	go test -fuzz '^FuzzParseScan$' -run '^$' ./internal/netlist
func FuzzParseScan(f *testing.F) {
	s27, err := os.ReadFile("../circuits/iscas/s27.bench")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(s27))
	f.Add("INPUT(en)\nOUTPUT(out)\nq0 = DFF(d0)\nq1 = DFF(d1)\nd0 = XOR(q0, en)\nc0 = AND(q0, en)\nd1 = XOR(q1, c0)\nout = AND(q0, q1)\n")
	f.Add("INPUT(a)\nOUTPUT(a)\nq = DFF(a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(a, q)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Fuzz(func(t *testing.T, src string) {
		info, err := netlist.ParseScanString(src, "fuzz")
		if err != nil {
			return
		}
		if info.ScanCells != len(info.PseudoInputs) || info.ScanCells != len(info.PseudoOutputs) {
			t.Fatalf("%d scan cells, %d pseudo-inputs, %d pseudo-outputs", info.ScanCells, len(info.PseudoInputs), len(info.PseudoOutputs))
		}
		parsesBack(t, info.Core)
	})
}
