package faultsim

import (
	"context"
	"testing"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// FuzzEnginesAgree is the differential check of the FFR engine on
// random circuits: for a circuits.Random topology, a fault model and a
// pattern count drawn from the input, Plan.MeasureDetection must return
// the naive oracle's detection counts, and the capture must reproduce
// the naive oracle's output words.
// Random circuits reach what the registry rarely has and what the
// compiled two-bank regions must bind correctly: n-ary gates (MaxArity
// up to 9), gates fed twice by one node, and outputs that also fan out.
// The seed corpus under testdata/fuzz/FuzzEnginesAgree covers all
// three and runs with plain go test; run the fuzzer with
//
//	go test -fuzz FuzzEnginesAgree -run '^$' ./internal/faultsim
func FuzzEnginesAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, inputs, gates, maxArity, outputs, locality, model uint8, patterns uint16) {
		c := circuits.Random(circuits.RandomOptions{
			Inputs:   2 + int(inputs%30),
			Gates:    1 + int(gates),
			MaxArity: 2 + int(maxArity%8),
			Outputs:  int(outputs % 16),
			Seed:     seed,
			Locality: 1 + int(locality%64),
		})
		m := fault.Models()[int(model)%len(fault.Models())]
		faults := m.Faults(c)
		if len(faults) == 0 {
			return
		}
		n := 1 + int(patterns)%1100
		want := newNaive(c, faults, seed).counts([]int{n})[n]
		got, err := NewPlan(c, faults).MeasureDetection(context.Background(),
			pattern.NewUniform(len(c.Inputs), seed), n, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if got.Detected[i] != want[i] {
				t.Fatalf("%s %s n=%d fault %v: detected %d, naive %d",
					c.Name, m, n, faults[i], got.Detected[i], want[i])
			}
		}
		checkCaptureIdentity(t, c, faults, seed, 11)
	})
}
