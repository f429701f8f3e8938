package widesim

// hasAVX2 reports whether the CPU has AVX2 and POPCNT and the OS saves
// its YMM registers across context switches, so that Sim may run the
// assembly loop exec8AVX2 and the fault simulator its counting
// kernel.  It is read once, at package init.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if ecx1&popcnt == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// exec8AVX2 evaluates code over v, as exec8 does, from its first
// instruction until its end or its first table gate, and returns the
// index it stopped at: len(code), or the table gate's, which it leaves
// unevaluated.  It checks no slot against len(v) and no pin range
// against len(args): the caller checks the stream's slots once per
// call (see stream.slots), and emit builds every pin range inside
// args.
//
//go:noescape
func exec8AVX2(v []Vec, code []instr, args []int32) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
