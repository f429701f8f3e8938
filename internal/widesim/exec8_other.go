//go:build !amd64

package widesim

// hasAVX2 is false off amd64: Sim always runs the Go loop exec8.
const hasAVX2 = false

// exec8AVX2 exists only on amd64; execAVX2 never calls it here.
func exec8AVX2(v []Vec, code []instr, args []int32) int {
	panic("widesim: no assembly evaluation loop on this architecture")
}
