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
//
// There are two readers.  Parse accepts gates in any order and numbers
// the nodes itself: inputs in declaration order, then gates in a
// depth-first walk of the sorted gate names, so a netlist's node order
// does not depend on how its lines are arranged.  Decode is the strict
// reader of Write's output: it numbers nodes in statement order and
// rejects a signal used above its definition, so for a circuit whose
// node names the syntax can carry, Decode(String(c)) is circuit.Equal
// to c (same node IDs, hence the same fault order and FFR numbering).
// Shard workers decode the coordinator's circuit with it.
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

// stmtKind tells the statements of a netlist apart.
type stmtKind uint8

const (
	stmtGate stmtKind = iota
	stmtInput
	stmtOutput
	stmtDFF // q = DFF(d), read only for ParseScan: name q, args [d]
)

// statement is one non-blank line of a netlist.  INPUT and OUTPUT
// statements carry only a name.
type statement struct {
	kind stmtKind
	rawGate
}

// read splits a netlist into its statements, in line order.  DFF
// statements are an error unless scan is set.
func read(r io.Reader, scan bool) ([]statement, error) {
	sc := bufio.NewScanner(r)
	// Lines may reach 1 MiB, but the buffer starts at bufio's default
	// size and grows only for long lines: zeroing 1 MiB per call
	// dominated the parse of small netlists.
	sc.Buffer(nil, 1<<20)

	var stmts []statement
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
			stmts = append(stmts, statement{stmtInput, rawGate{name: arg, line: lineNo}})
		case strings.HasPrefix(line, "OUTPUT(") || strings.HasPrefix(line, "OUTPUT ("):
			arg, err := parenArg(line, "OUTPUT")
			if err != nil {
				return nil, &ParseError{lineNo, err.Error()}
			}
			stmts = append(stmts, statement{stmtOutput, rawGate{name: arg, line: lineNo}})
		default:
			if scan {
				if q, d, ok, err := parseDFF(line, lineNo); err != nil {
					return nil, err
				} else if ok {
					stmts = append(stmts, statement{stmtDFF, rawGate{name: q, args: []string{d}, line: lineNo}})
					continue
				}
			}
			g, err := parseGate(line, lineNo)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, statement{stmtGate, g})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return stmts, nil
}

// Parse reads a netlist and builds the circuit.  name becomes the
// circuit name (netlists carry no name of their own).
func Parse(r io.Reader, name string) (*circuit.Circuit, error) {
	stmts, err := read(r, false)
	if err != nil {
		return nil, err
	}
	inputs, outputs, gates, _ := split(stmts)
	return assemble(name, inputs, outputs, gates)
}

// split sorts statements by kind, keeping each kind in line order.
// cells are the DFF statements.
func split(stmts []statement) (inputs, outputs []string, gates, cells []rawGate) {
	for _, st := range stmts {
		switch st.kind {
		case stmtInput:
			inputs = append(inputs, st.name)
		case stmtOutput:
			outputs = append(outputs, st.name)
		case stmtDFF:
			cells = append(cells, st.rawGate)
		default:
			gates = append(gates, st.rawGate)
		}
	}
	return inputs, outputs, gates, cells
}

// Decode reads a netlist in node order, as Write renders it, and
// builds the circuit: every INPUT and gate statement creates the next
// node, and a gate may only use signals declared above it.  OUTPUT
// statements may appear anywhere; they mark outputs in their own
// order.  name becomes the circuit name.
func Decode(src, name string) (*circuit.Circuit, error) {
	stmts, err := read(strings.NewReader(src), false)
	if err != nil {
		return nil, err
	}
	b := circuit.NewBuilder(name)
	ids := make(map[string]circuit.NodeID, len(stmts))
	for _, st := range stmts {
		switch st.kind {
		case stmtInput:
			ids[st.name] = b.Input(st.name)
		case stmtGate:
			fanin := make([]circuit.NodeID, len(st.args))
			for i, a := range st.args {
				id, ok := ids[a]
				if !ok {
					return nil, &ParseError{st.line, fmt.Sprintf("signal %q used before its definition", a)}
				}
				fanin[i] = id
			}
			ids[st.name] = b.Gate(st.op, st.name, fanin...)
		}
	}
	for _, st := range stmts {
		if st.kind != stmtOutput {
			continue
		}
		id, ok := ids[st.name]
		if !ok {
			return nil, &ParseError{st.line, fmt.Sprintf("OUTPUT(%s) never defined", st.name)}
		}
		b.MarkOutput(id)
	}
	return b.Build()
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

// Write renders the circuit in .bench syntax, one statement per node
// in node-ID order, so Decode reads back the same circuit.  The OUTPUT
// statements come before the first gate: when every input precedes
// every gate, as in circuits Parse builds, the inputs, the outputs and
// then the gates.  TableOp gates cannot be expressed and cause an
// error.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# circuit %s\n", c.Name)
	st := c.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n", st.Inputs, st.Outputs, st.Gates)
	outputs := c.Outputs // written before the first gate
	writeOutputs := func() {
		for _, id := range outputs {
			fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Node(id).Name)
		}
		outputs = nil
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.IsInput {
			fmt.Fprintf(bw, "INPUT(%s)\n", n.Name)
			continue
		}
		writeOutputs()
		if n.Op == logic.TableOp {
			return fmt.Errorf("netlist: gate %q uses an explicit truth table, not expressible in .bench", n.Name)
		}
		args := make([]string, len(n.Fanin))
		for i, f := range n.Fanin {
			args[i] = c.Node(f).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", n.Name, n.Op, strings.Join(args, ", "))
	}
	writeOutputs() // a circuit without gates
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
