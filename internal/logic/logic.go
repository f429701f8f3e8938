// Package logic provides the boolean-gate primitives used by the rest of
// PROTEST: gate operators, bit-parallel evaluation, and the arithmetic
// (Parker–McCluskey) probability transforms the paper relies on.
//
// Every component of a circuit represents a boolean function
// f: {0,1}^n -> {0,1}.  Following section 3 of the paper, each such
// function is mapped into an arithmetic function over [0,1] by the
// transformations  NOT x |-> 1-x  and  x AND y |-> x*y.  For the common
// gate operators closed forms are used; arbitrary functions are handled
// through truth tables (see table.go).
package logic

import "fmt"

// Op identifies a gate operator.  The zero value is invalid so that
// accidentally zeroed nodes are caught by validation.
type Op uint8

// Supported gate operators.  All operators except Not, Buf, Const0 and
// Const1 are n-ary (n >= 1 accepted, n >= 2 typical).
const (
	Invalid Op = iota
	Const0     // constant 0, no inputs
	Const1     // constant 1, no inputs
	Buf        // identity, exactly one input
	Not        // inverter, exactly one input
	And
	Nand
	Or
	Nor
	Xor  // odd parity
	Xnor // even parity
	// TableOp marks a gate whose function is given by an explicit
	// truth table attached to the circuit node.
	TableOp
)

var opNames = [...]string{
	Invalid: "INVALID",
	Const0:  "CONST0",
	Const1:  "CONST1",
	Buf:     "BUF",
	Not:     "NOT",
	And:     "AND",
	Nand:    "NAND",
	Or:      "OR",
	Nor:     "NOR",
	Xor:     "XOR",
	Xnor:    "XNOR",
	TableOp: "TABLE",
}

// String returns the canonical upper-case mnemonic of the operator.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// ParseOp converts a mnemonic (as used in .bench netlists) to an Op.
// It accepts the common aliases BUFF and INV.
func ParseOp(s string) (Op, error) {
	switch s {
	case "CONST0", "GND", "ZERO":
		return Const0, nil
	case "CONST1", "VDD", "ONE":
		return Const1, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "TABLE":
		return TableOp, nil
	}
	return Invalid, fmt.Errorf("logic: unknown operator %q", s)
}

// ArityOK reports whether the operator accepts n inputs.
func (op Op) ArityOK(n int) bool {
	switch op {
	case Const0, Const1:
		return n == 0
	case Buf, Not:
		return n == 1
	case And, Nand, Or, Nor, Xor, Xnor:
		return n >= 1
	case TableOp:
		return n >= 0
	}
	return false
}

// Eval evaluates the operator on boolean inputs.  TableOp gates must be
// evaluated through their TruthTable instead.
func Eval(op Op, in []bool) bool {
	switch op {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if op == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if op == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if op == Xnor {
			return !v
		}
		return v
	}
	panic("logic: Eval on " + op.String())
}

// EvalWord evaluates the operator bit-parallel on 64 patterns at once.
// Each uint64 carries one value per pattern.
func EvalWord(op Op, in []uint64) uint64 {
	switch op {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, w := range in {
			v &= w
		}
		if op == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, w := range in {
			v |= w
		}
		if op == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, w := range in {
			v ^= w
		}
		if op == Xnor {
			return ^v
		}
		return v
	}
	panic("logic: EvalWord on " + op.String())
}

// ControllingValue returns the controlling input value of the operator
// and whether one exists.  An input at its controlling value determines
// the gate output regardless of the other inputs.
func (op Op) ControllingValue() (val bool, ok bool) {
	switch op {
	case And, Nand:
		return false, true
	case Or, Nor:
		return true, true
	}
	return false, false
}

// Transistors returns the transistor cost of a gate in a static CMOS
// library, used for the size figures of Tables 7 and 8 of the paper.
// n is the number of gate inputs.
func Transistors(op Op, n int) int {
	switch op {
	case Const0, Const1:
		return 0
	case Buf:
		return 4
	case Not:
		return 2
	case And, Or:
		return 2*n + 2 // NAND/NOR + inverter
	case Nand, Nor:
		return 2 * n
	case Xor, Xnor:
		if n <= 1 {
			return 4
		}
		return 10 * (n - 1) // transmission-gate XOR chain
	case TableOp:
		// Rough two-level estimate: treated like an AOI with n inputs.
		return 4 * n
	}
	return 0
}
