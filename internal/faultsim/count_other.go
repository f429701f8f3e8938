//go:build !amd64

package faultsim

import "protest/internal/widesim"

// count8AVX2 exists only on amd64; widesim.HasAVX2 is false elsewhere,
// so count never calls it here.
func count8AVX2(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, counts []int) {
	panic("faultsim: no counting kernel on this architecture")
}
