package netlist_test

import (
	"strings"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/netlist"
)

// roundTrip renders c and decodes the text under c's name.
func roundTrip(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	text, err := netlist.String(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Decode(text, c.Name)
	if err != nil {
		t.Fatalf("%s: decode: %v\n%s", c.Name, err, text)
	}
	return d
}

// TestDecodeRoundTrip: decoding a rendering gives back exactly the
// rendered circuit, node IDs included, for every registry circuit, for
// random circuits and for a circuit that declares an input after a
// gate.  Registry circuits declare every input before every gate, the
// layout Write has always rendered, so their text is unchanged by
// rendering in node order.
func TestDecodeRoundTrip(t *testing.T) {
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		if last := c.Inputs[len(c.Inputs)-1]; int(last) != len(c.Inputs)-1 {
			t.Errorf("%s: an input follows a gate", name)
		}
		if d := roundTrip(t, c); !circuit.Equal(d, c) {
			t.Errorf("%s: decoded circuit differs from the original", name)
		}
	}
	for seed := uint64(0); seed < 200; seed++ {
		c := circuits.Random(circuits.RandomOptions{
			Inputs: 2 + int(seed%9), Gates: 10 + int(seed%50), Outputs: 1 + int(seed%4), Seed: seed,
		})
		if d := roundTrip(t, c); !circuit.Equal(d, c) {
			t.Fatalf("random seed %d: decoded circuit differs from the original", seed)
		}
	}

	b := circuit.NewBuilder("late")
	x := b.Input("x")
	g := b.Not("g", x)
	y := b.Input("y")
	b.MarkOutputs(b.And("o", g, y), g)
	late, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	text, _ := netlist.String(late)
	want := "INPUT(x)\nOUTPUT(o)\nOUTPUT(g)\ng = NOT(x)\nINPUT(y)\no = AND(g, y)\n"
	if !strings.HasSuffix(text, want) {
		t.Fatalf("rendering\n%s\nwant it to end in\n%s", text, want)
	}
	if d := roundTrip(t, late); !circuit.Equal(d, late) {
		t.Fatal("late input: decoded circuit differs from the original")
	}
	if p, err := netlist.ParseString(text, "late"); err != nil || circuit.Equal(p, late) {
		t.Fatalf("Parse numbers inputs first, so it must not reproduce the late input (err %v)", err)
	}
}

// TestDecodeErrors: the strict decoder rejects what it cannot number
// in statement order.
func TestDecodeErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"forward reference", "INPUT(a)\nOUTPUT(y)\ny = NOT(g)\ng = BUF(a)\n", `line 3: signal "g" used before its definition`},
		{"self reference", "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n", `line 3: signal "y" used before its definition`},
		{"duplicate name", "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n", `duplicate node name "a"`},
		{"undefined output", "INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n", `line 2: OUTPUT(z) never defined`},
		{"bad arity", "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n", `NOT gate "y" with 2 inputs`},
		{"sequential element", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n", `sequential element DFF`},
		{"no inputs", "OUTPUT(y)\ny = CONST1()\n", `no primary inputs`},
	} {
		_, err := netlist.Decode(tc.src, tc.name)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecode fuzzes the decoder shard workers run on every netlist a
// coordinator, or any client of POST /v1/shard, sends.  No text may
// panic it, and a text that decodes must render to one that decodes
// to an equal circuit.  The seeds are every registry circuit's
// rendering plus a forward reference and a duplicate name; they run
// with plain go test.  Run the fuzzer with
//
//	go test -fuzz FuzzDecode -run '^$' ./internal/netlist
func FuzzDecode(f *testing.F) {
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		text, err := netlist.String(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(g)\ng = BUF(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = AND(a, b)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.Decode(src, "fuzz")
		if err != nil {
			return
		}
		text, err := netlist.String(c)
		if err != nil {
			t.Fatalf("decoded circuit does not render: %v", err)
		}
		d, err := netlist.Decode(text, "fuzz")
		if err != nil {
			t.Fatalf("rendering does not decode: %v\n%s", err, text)
		}
		if !circuit.Equal(c, d) {
			t.Fatalf("%q decoded, rendered to %q, decoded to another circuit", src, text)
		}
	})
}
