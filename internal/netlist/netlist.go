// Package netlist reads and writes combinational circuits in an
// ISCAS-85 ".bench"-style structure description language.  This plays
// the role of the structure description language the original PASCAL
// PROTEST compiled.
//
// Grammar (one statement per line, '#' starts a comment):
//
//	INPUT(name)
//	OUTPUT(name)
//	name = OP(arg1, arg2, ...)
//
// OP is one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF, CONST0,
// CONST1.  OUTPUT statements may appear before the signal is defined.
// Sequential elements (DFF) are rejected: PROTEST analyzes the
// combinational core of a scan design.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"protest/internal/circuit"
	"protest/internal/logic"
)

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("netlist: line %d: %s", e.Line, e.Msg)
}

type rawGate struct {
	name string
	op   logic.Op
	args []string
	line int
}

// Parse reads a netlist and builds the circuit.  name becomes the
// circuit name (netlists carry no name of their own).
func Parse(r io.Reader, name string) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB, but the buffer starts at bufio's default
	// size and grows only for long lines: zeroing 1 MiB per call
	// dominated the parse of small netlists.
	sc.Buffer(nil, 1<<20)

	var inputs []string
	var outputs []string
	var gates []rawGate
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "INPUT(") || strings.HasPrefix(line, "INPUT ("):
			arg, err := parenArg(line, "INPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			inputs = append(inputs, arg)
		case strings.HasPrefix(line, "OUTPUT(") || strings.HasPrefix(line, "OUTPUT ("):
			arg, err := parenArg(line, "OUTPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			outputs = append(outputs, arg)
		default:
			g, err := parseGate(line, lineNo)
			if err != nil {
				return nil, err
			}
			gates = append(gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return assemble(name, inputs, outputs, gates)
}

func parenArg(line, keyword string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed %s statement %q", keyword, line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", fmt.Errorf("%s with empty name", keyword)
	}
	return arg, nil
}

func parseGate(line string, lineNo int) (rawGate, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return rawGate{}, &ParseError{lineNo, fmt.Sprintf("expected assignment, got %q", line)}
	}
	name := strings.TrimSpace(line[:eq])
	if name == "" {
		return rawGate{}, &ParseError{lineNo, "empty signal name"}
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return rawGate{}, &ParseError{lineNo, fmt.Sprintf("malformed gate expression %q", rhs)}
	}
	opName := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	if opName == "DFF" || opName == "LATCH" {
		return rawGate{}, &ParseError{lineNo, "sequential element " + opName + " not supported: extract the combinational core first"}
	}
	op, err := logic.ParseOp(opName)
	if err != nil {
		return rawGate{}, &ParseError{lineNo, err.Error()}
	}
	var args []string
	inner := strings.TrimSpace(rhs[open+1 : close])
	if inner != "" {
		for _, a := range strings.Split(inner, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return rawGate{}, &ParseError{lineNo, "empty argument"}
			}
			args = append(args, a)
		}
	}
	return rawGate{name: name, op: op, args: args, line: lineNo}, nil
}

func assemble(name string, inputs, outputs []string, gates []rawGate) (*circuit.Circuit, error) {
	b := circuit.NewBuilder(name)
	ids := make(map[string]circuit.NodeID, len(inputs)+len(gates))
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("netlist: duplicate input %q", in)
		}
		ids[in] = b.Input(in)
	}
	// Gates may be listed in any order; topologically sort them.
	pending := make(map[string]rawGate, len(gates))
	for _, g := range gates {
		if _, dup := pending[g.name]; dup {
			return nil, &ParseError{g.line, fmt.Sprintf("signal %q defined twice", g.name)}
		}
		if _, dup := ids[g.name]; dup {
			return nil, &ParseError{g.line, fmt.Sprintf("signal %q already declared as input", g.name)}
		}
		pending[g.name] = g
	}
	// A signal entered but not yet emitted is on the DFS stack (the
	// first error aborts the walk), so reaching one again closes a
	// cycle.  One mark per signal keeps the check linear in depth.
	entered := make(map[string]bool, len(gates))
	var emit func(n string) error
	emit = func(n string) error {
		if _, done := ids[n]; done {
			return nil
		}
		g, ok := pending[n]
		if !ok {
			return fmt.Errorf("netlist: signal %q used but never defined", n)
		}
		if entered[n] {
			return &ParseError{g.line, fmt.Sprintf("combinational cycle through %q", n)}
		}
		entered[n] = true
		fanin := make([]circuit.NodeID, len(g.args))
		for i, a := range g.args {
			if err := emit(a); err != nil {
				return err
			}
			fanin[i] = ids[a]
		}
		ids[n] = b.Gate(g.op, g.name, fanin...)
		return nil
	}
	// Deterministic emission order.
	names := make([]string, 0, len(pending))
	for n := range pending {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := emit(n); err != nil {
			return nil, err
		}
	}
	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("netlist: OUTPUT(%s) never defined", out)
		}
		b.MarkOutput(id)
	}
	return b.Build()
}

// ParseString is a convenience wrapper over Parse.
func ParseString(s, name string) (*circuit.Circuit, error) {
	return Parse(strings.NewReader(s), name)
}

// Write renders the circuit in .bench syntax.  TableOp gates cannot be
// expressed and cause an error.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# circuit %s\n", c.Name)
	st := c.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", st.Inputs, st.Outputs, st.Gates)
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Node(id).Name)
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Node(id).Name)
	}
	for _, id := range c.TopoOrder() {
		n := c.Node(id)
		if n.IsInput {
			continue
		}
		if n.Op == logic.TableOp {
			return fmt.Errorf("netlist: gate %q uses an explicit truth table, not expressible in .bench", n.Name)
		}
		args := make([]string, len(n.Fanin))
		for i, f := range n.Fanin {
			args[i] = c.Node(f).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", n.Name, n.Op, strings.Join(args, ", "))
	}
	return bw.Flush()
}

// String renders the circuit as a .bench netlist.
func String(c *circuit.Circuit) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		return "", err
	}
	return sb.String(), nil
}
