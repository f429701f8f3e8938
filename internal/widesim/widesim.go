// Package widesim implements wide-block bit-parallel logic simulation:
// Lanes = 8 consecutive 64-pattern blocks evaluated together as Vec
// lane vectors, driven by a compiled, levelized program.  Every fault
// simulation runs at this one width: the measurements' chunks and BIST
// capture alike.
//
// Two ideas separate it from bitsim, the narrow one-block oracle:
//
//   - The circuit is compiled once into a flat instruction stream in
//     level order (Compile): per gate a small fixed-size record with an
//     arity-specialized opcode, instead of a walk over circuit.Node
//     structs.  The evaluation loop touches only this stream and the
//     value array, so the per-gate dispatch cost is a predictable
//     switch on a small opcode, not pointer chasing.
//   - Values are stored structure-of-arrays: one Vec per node, lanes
//     contiguous, so each gate's lanes are computed by straight-line
//     code and the per-gate dispatch and index arithmetic amortize
//     over 512 patterns.
//
// The value array holds several banks: the good values, the faulty
// values of one stem flip, an all-ones and an all-zero slot, and the
// line and observability slots of the fault simulator's per-stem
// streams (see Program).  Program.CompileCones and
// Program.CompileStems compile a stem's region into a stream that
// writes only the faulty bank and whose operands were bound at compile
// time to the bank they must read, so fault propagation (Sim.Propagate,
// Sim.Observe) runs the same evaluation loop as the good simulation
// (Sim.Run) and never restores anything.  The per-stem streams of
// Stems also carry the critical-path trace of the stem's fanout-free
// region and the composition of its observability, so all per-stem
// work of the fault simulator runs in the evaluation loop.  Two
// opcodes serve them: opAndNot2 (^a & b) for the lines of Or and Nor
// pins, and opOrXorN, the OR of the XORs of pairs of slots, for the
// observability of a stem that only the virtual sink dominates.
//
// Two evaluation loops run the compiled streams, chosen once per call
// from the CPU, and a Vec is exactly two 256-bit registers.  On amd64
// CPUs with AVX2 it runs exec8AVX2, an assembly loop that holds each
// Vec in two YMM registers, accumulates an n-ary gate's pins in
// registers, and inverts the result of Nand, Nor, Xnor, Not and Const1
// with an all-ones register.  It stops at each table gate and at each
// opTablePin (a table gate's pin difference in a trace), which Go
// evaluates (evalSlow) before the loop resumes.  Everywhere else it
// runs exec8, a Go loop that writes the eight lanes of every 0-, 1-
// and 2-input gate as straight-line code, accumulates an n-ary gate's
// lanes in locals and hands table gates and opTablePin to the same
// evalSlow.  Both loops give the same words (TestAVX2MatchesExec8 pins
// them to each other, TestWideMatchesNarrow to bitsim).  The CPU check
// that selects the assembly loop, HasAVX2, also selects the fault
// simulator's counting kernel.
//
// The assembly loop checks no index.  Instead every compiled stream
// records a bound that each value slot it names lies below
// (stream.slots: the circuit's node count for a Program, twice that for
// Regions, whose streams also name the faulty bank, and the whole value
// array for Stems), and each call checks that bound against the value
// array once, panicking before any gate runs on a stream compiled for
// a larger circuit or a value array sized without the Stems' slots.  The
// n-ary pin ranges it reads are built by emit and lie inside the
// stream's args.
//
// Lane l of every vector is pattern block l: bit b of lane l is
// pattern l*64+b of the chunk.  A chunk of Lanes blocks therefore
// carries exactly the patterns of Lanes consecutive narrow blocks,
// which is what keeps wide results bit-identical to narrow runs.
package widesim

// Lanes is the simulation width: the number of 64-pattern blocks one
// lane vector carries.  exec8, the assembly loop and the fault
// simulator's counting kernel are written for eight.
const Lanes = 8

// Vec is a lane vector: Lanes consecutive 64-pattern blocks, one block
// per element.
type Vec [Lanes]uint64

// Ones returns the all-ones lane vector.
func Ones() Vec {
	var v Vec
	for i := range v {
		v[i] = ^uint64(0)
	}
	return v
}

// HasAVX2 reports whether the evaluation loop and the fault
// simulator's counting kernel run in assembly here: the CPU has AVX2
// and POPCNT and the OS saves YMM state (see the package comment).  It
// is read once, at start-up.
func HasAVX2() bool { return hasAVX2 }
