package faultsim

import (
	"slices"
	"testing"
	"unsafe"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
	"protest/internal/widesim"
)

// TestCountKernelMatchesGo pins the assembly counting kernel to its Go
// reference: on random circuits under every fault model, after each
// chunk, count8AVX2 and countWords must add the same count for
// every fault of every group.  The lane masks are ragged as a run's
// last chunk makes them: full lanes, a short last block, and zero for
// the padding lanes.  The record layout the kernel reads is pinned too.
func TestCountKernelMatchesGo(t *testing.T) {
	if !widesim.HasAVX2() {
		t.Skip("no AVX2 and POPCNT (or the OS does not save YMM state): the engine counts with countWords only, so there is no kernel to compare")
	}
	var r faultRec
	if unsafe.Sizeof(r) != 24 || unsafe.Offsetof(r.line) != 4 || unsafe.Offsetof(r.aggr) != 8 ||
		unsafe.Offsetof(r.act) != 12 || unsafe.Offsetof(r.stuck) != 16 {
		t.Fatal("faultRec layout differs from the one count_amd64.s reads")
	}
	var cs []*circuit.Circuit
	for seed := uint64(1); seed <= 3; seed++ {
		cs = append(cs, circuits.Random(circuits.RandomOptions{Inputs: 16, Gates: 200, Outputs: 6, Seed: seed, MaxArity: 9}))
	}
	for _, c := range cs {
		for _, m := range fault.Models() {
			plan := NewPlan(c, m.Faults(c))
			e := plan.AcquireEngine()
			gen := pattern.NewUniform(len(c.Inputs), 5)
			kernel, ref := make([]int, len(plan.faults)), make([]int, len(plan.faults))
			for _, k := range []int{8, 5} {
				var lanes [8]uint64
				for l := range k {
					lanes[l] = ^uint64(0)
				}
				lanes[k-1] = blockMask(37)
				gen.NextBlocks(e.words, 8, k)
				e.simulate(e.words, e.det, lanes[:], make([]int, len(plan.faults)), nil)
				v := e.sim.Slots()
				for si, grp := range plan.part.Groups {
					mask := v[e.stems.Obs(si)]
					for l := range mask {
						mask[l] &= lanes[l]
					}
					count8(v, e.recs, grp, &mask, kernel)
					countWords(v, e.recs, grp, &mask, ref)
					for _, fi := range grp {
						if kernel[fi] != ref[fi] {
							t.Fatalf("%s %s chunk of %d blocks, fault %v: kernel counts %d, Go %d",
								c.Name, m, k, plan.faults[fi], kernel[fi], ref[fi])
						}
					}
				}
			}
			if slices.Max(ref) == 0 {
				t.Fatalf("%s %s: no fault detected, the comparison shows nothing", c.Name, m)
			}
			e.Release()
		}
	}
}
