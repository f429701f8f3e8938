// Package widesim implements wide-block bit-parallel logic simulation:
// W consecutive 64-pattern blocks evaluated together as [W]uint64 lane
// vectors, driven by a compiled, levelized program.  There are two
// widths: W = 8 for every fault-simulation measurement and W = 1 for
// BIST capture.
//
// Two ideas separate it from bitsim, the narrow (W = 1) oracle:
//
//   - The circuit is compiled once into a flat instruction stream in
//     level order (Compile): per gate a small fixed-size record with an
//     arity-specialized opcode, instead of a walk over circuit.Node
//     structs.  The evaluation loop touches only this stream and the
//     value array, so the per-gate dispatch cost is a predictable
//     switch on a small opcode, not pointer chasing.
//   - Values are stored structure-of-arrays: one [W]uint64 lane vector
//     per node, lanes contiguous, so each gate kernel is a fused
//     constant-length loop over W machine words and the per-gate
//     dispatch and index arithmetic amortize over W×64 patterns.
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
// The lane vector types B1 and B8 are plain uint64 arrays, and the lane
// kernels (And, Or, ..., Store) are generic functions over the Block
// constraint, not methods: the compiler stencils one instantiation per
// array length (each is its own gcshape), where the lane count is a
// constant and every kernel inlines.  Methods called on a type
// parameter would instead go through the instantiation's dictionary as
// indirect calls, one per lane-vector operation.
//
// Three evaluation loops run the compiled streams, chosen once per
// call from the simulator's width and, at W = 8, the CPU.
// W = 1 runs the generic loop, whose pointer forms of the kernels
// write each gate's result in place.  W = 8 carries every chunk of
// the fault simulator's measurements, so it runs nearly all good
// simulations and stem propagations, and a B8 is exactly two 256-bit
// registers.  On amd64 CPUs with AVX2 it runs exec8AVX2, an
// assembly loop that holds each B8 in two YMM registers, accumulates an
// n-ary gate's pins in registers, and inverts the result of Nand, Nor,
// Xnor, Not and Const1 with an all-ones register.  It stops at each
// table gate and at each opTablePin (a table gate's pin difference in a
// trace), which Go evaluates before the loop resumes.
// Everywhere else W = 8 runs exec8, a non-generic Go loop: the compiler
// does not unroll the kernels' constant-trip loops, and at eight lanes
// that loop overhead costs as much as the gate arithmetic, so exec8
// writes the eight lanes of every 0-, 1- and 2-input gate as
// straight-line code and accumulates an n-ary gate's lanes in locals.
// Table gates and opTablePin take the generic evalSlow at every width.
// Every loop gives the same words (TestAVX2MatchesExec8 and
// TestWideMatchesNarrow pin them to each other and to bitsim).  The
// CPU check that selects the assembly loop, HasAVX2, also selects the
// fault simulator's counting kernel.
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
// pattern l*64+b of the chunk.  A chunk of W blocks therefore carries
// exactly the patterns of W consecutive narrow blocks, which is what
// keeps wide results bit-identical to W narrow runs.
package widesim

// HasAVX2 reports whether W = 8 runs on AVX2 kernels here: the CPU has
// AVX2 and POPCNT and the OS saves YMM state (see the package comment).
// It is read once, at start-up.
func HasAVX2() bool { return hasAVX2 }

// B1 and B8 are the lane vectors: W consecutive 64-pattern blocks, one
// block per array element.
type (
	B1 [1]uint64
	B8 [8]uint64
)

// Block is the constraint shared by every width: a fixed-size lane
// vector.  The kernels below loop over len(x), a constant in each
// instantiation, so they compile to straight word operations.
type Block interface {
	~[1]uint64 | ~[8]uint64
}

// Lanes returns the width W of B.
func Lanes[B Block]() int {
	var z B
	return len(z)
}

// And returns x & y lane by lane.
func And[B Block](x, y B) B {
	for i := 0; i < len(x); i++ {
		x[i] &= y[i]
	}
	return x
}

// Or returns x | y lane by lane.
func Or[B Block](x, y B) B {
	for i := 0; i < len(x); i++ {
		x[i] |= y[i]
	}
	return x
}

// Xor returns x ^ y lane by lane.
func Xor[B Block](x, y B) B {
	for i := 0; i < len(x); i++ {
		x[i] ^= y[i]
	}
	return x
}

// Not returns ^x lane by lane.
func Not[B Block](x B) B {
	for i := 0; i < len(x); i++ {
		x[i] = ^x[i]
	}
	return x
}

// Load gathers a vector from src[0:W].
func Load[B Block](src []uint64) B {
	var x B
	_ = src[len(x)-1]
	for i := 0; i < len(x); i++ {
		x[i] = src[i]
	}
	return x
}

// Store scatters the lanes of x into dst[0:W].
func Store[B Block](x B, dst []uint64) {
	_ = dst[len(x)-1]
	for i := 0; i < len(x); i++ {
		dst[i] = x[i]
	}
}

// and, or, xor, nand, nor, xnor, andNot and not are the pointer forms
// of the lane kernels that the evaluation loop runs: each writes its
// result in place into *d, which may alias an operand, instead of
// returning it through a 64-byte temporary.
func and[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = (*x)[i] & (*y)[i]
	}
}

func or[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = (*x)[i] | (*y)[i]
	}
}

func xor[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = (*x)[i] ^ (*y)[i]
	}
}

func nand[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = ^((*x)[i] & (*y)[i])
	}
}

func nor[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = ^((*x)[i] | (*y)[i])
	}
}

func xnor[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = ^((*x)[i] ^ (*y)[i])
	}
}

func andNot[B Block](d, x, y *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = ^(*x)[i] & (*y)[i]
	}
}

func not[B Block](d, x *B) {
	for i := 0; i < len(*d); i++ {
		(*d)[i] = ^(*x)[i]
	}
}

// Ones returns the all-ones vector of a width.
func Ones[B Block]() B {
	var z B
	return Not(z)
}
