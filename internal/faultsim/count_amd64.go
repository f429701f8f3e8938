package faultsim

import "protest/internal/widesim"

// count8AVX2 is countWords in assembly, for CPUs with AVX2
// and POPCNT (widesim.HasAVX2): for every fault fi of grp it computes
// the activation of recs[fi] as countWords does, ANDs it with the
// fault's line and with mask, and adds the eight lanes' POPCNTQ to
// counts[fi].  It checks no index: every slot of recs must lie below
// len(v), and every fault index of grp below len(recs) and len(counts)
// (see count8).
//
//go:noescape
func count8AVX2(v []widesim.Vec, recs []faultRec, grp []int32, mask *widesim.Vec, counts []int)
