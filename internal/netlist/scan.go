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

// The paper's setting: scan design (scan path / scan set / LSSD,
// [EiWi77]) reduces the test of an arbitrary sequential circuit to the
// test of its combinational core — every flip-flop becomes a
// pseudo-input (its output is controllable by shifting) and a
// pseudo-output (its input is observable by shifting out).  ParseScan
// implements exactly this extraction for ISCAS-89-style netlists with
// DFF elements.

// ScanInfo describes the extraction of a combinational core.
type ScanInfo struct {
	// Core is the extracted combinational circuit.  Every flip-flop
	// q = DFF(d) contributes a pseudo-input named q and a pseudo-output
	// wrapping d.
	Core *circuit.Circuit
	// ScanCells is the number of flip-flops converted.
	ScanCells int
	// PseudoInputs are the input positions (into Core.Inputs) that
	// correspond to scan cells rather than real primary inputs.
	PseudoInputs []int
	// PseudoOutputs are the output positions that feed scan cells.
	PseudoOutputs []int
}

// ParseScan reads a netlist that may contain DFF elements and returns
// the combinational core with the flip-flops replaced by scan
// pseudo-ports.
func ParseScan(r io.Reader, name string) (*ScanInfo, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // as in Parse

	var inputs, outputs []string
	var gates []rawGate
	type dff struct {
		q, d string
		line int
	}
	var cells []dff
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
			if q, d, ok, err := parseDFF(line, lineNo); err != nil {
				return nil, err
			} else if ok {
				cells = append(cells, dff{q: q, d: d, line: lineNo})
				continue
			}
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

	// Flip-flop outputs become pseudo-inputs; their D signals become
	// pseudo-outputs (wrapped in a BUF so a D that is also a primary
	// output or an input keeps a distinct observable point).
	info := &ScanInfo{ScanCells: len(cells)}
	for _, cell := range cells {
		inputs = append(inputs, cell.q)
		info.PseudoInputs = append(info.PseudoInputs, len(inputs)-1)
	}
	for i, cell := range cells {
		wrap := fmt.Sprintf("_scan_d%d", i)
		gates = append(gates, rawGate{
			name: wrap,
			op:   logic.Buf,
			args: []string{cell.d},
			line: cell.line,
		})
		outputs = append(outputs, wrap)
	}
	core, err := assemble(name, inputs, outputs, gates)
	if err != nil {
		return nil, err
	}
	info.Core = core
	// Output positions of the pseudo-outputs (appended last, but
	// assemble preserves OUTPUT order).
	for i := range cells {
		wrap := fmt.Sprintf("_scan_d%d", i)
		for pos, id := range core.Outputs {
			if core.Node(id).Name == wrap {
				info.PseudoOutputs = append(info.PseudoOutputs, pos)
				break
			}
		}
	}
	sort.Ints(info.PseudoOutputs)
	return info, nil
}

// ParseScanString is the string convenience form of ParseScan.
func ParseScanString(src, name string) (*ScanInfo, error) {
	return ParseScan(strings.NewReader(src), name)
}

// parseDFF recognizes "q = DFF(d)" lines.  It returns ok=false for
// non-DFF statements.
func parseDFF(line string, lineNo int) (q, d string, ok bool, err error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return "", "", false, nil
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 {
		return "", "", false, nil
	}
	op := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	if op != "DFF" {
		return "", "", false, nil
	}
	close := strings.LastIndexByte(rhs, ')')
	if close < open {
		return "", "", false, &ParseError{lineNo, "malformed DFF statement"}
	}
	q = strings.TrimSpace(line[:eq])
	d = strings.TrimSpace(rhs[open+1 : close])
	if q == "" || d == "" || strings.ContainsRune(d, ',') {
		return "", "", false, &ParseError{lineNo, "DFF takes exactly one data input"}
	}
	return q, d, true, nil
}
