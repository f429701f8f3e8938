package core

import (
	"fmt"
	"math/bits"

	"protest/internal/bitsim"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

// ExactMaxInputs bounds exhaustive reference computations.
const ExactMaxInputs = 20

// ExactProbs computes the exact signal probability of every node by
// weighted exhaustive enumeration (2^n patterns, n <= ExactMaxInputs).
// It serves as the ground-truth oracle the estimator is tested against.
func ExactProbs(c *circuit.Circuit, inputProbs []float64) ([]float64, error) {
	n := len(c.Inputs)
	if n > ExactMaxInputs {
		return nil, fmt.Errorf("core: exact computation limited to %d inputs, circuit has %d", ExactMaxInputs, n)
	}
	if len(inputProbs) != n {
		return nil, fmt.Errorf("core: %d probabilities for %d inputs", len(inputProbs), n)
	}
	weights := patternWeights(inputProbs)
	sim := bitsim.New(c)
	probs := make([]float64, c.NumNodes())
	err := sim.EnumerateExhaustive(func(base uint64, valid int) {
		vals := sim.Values()
		for id := 0; id < len(vals); id++ {
			w := vals[id]
			if w == 0 {
				continue
			}
			acc := 0.0
			for b := 0; b < valid; b++ {
				if w>>b&1 == 1 {
					acc += weights[base+uint64(b)]
				}
			}
			probs[id] += acc
		}
	})
	if err != nil {
		return nil, err
	}
	return probs, nil
}

// ExactDetectProbs computes the exact detection probability of each
// fault by weighted exhaustive enumeration.
func ExactDetectProbs(c *circuit.Circuit, faults []fault.Fault, inputProbs []float64) ([]float64, error) {
	n := len(c.Inputs)
	if n > ExactMaxInputs {
		return nil, fmt.Errorf("core: exact computation limited to %d inputs, circuit has %d", ExactMaxInputs, n)
	}
	weights := patternWeights(inputProbs)
	fs := faultsim.New(c)
	det := make([]uint64, len(faults))
	out := make([]float64, len(faults))
	err := bitsim.Exhaustive(n, func(words []uint64, base uint64, valid int) {
		fs.SimulateBlock(words, faults, det)
		for fi, w := range det {
			if w == 0 {
				continue
			}
			acc := 0.0
			for b := 0; b < valid; b++ {
				if w>>b&1 == 1 {
					acc += weights[base+uint64(b)]
				}
			}
			out[fi] += acc
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// patternWeights returns the probability of each of the 2^n input
// assignments under independent per-input probabilities.
func patternWeights(inputProbs []float64) []float64 {
	n := len(inputProbs)
	weights := make([]float64, 1<<n)
	weights[0] = 1
	size := 1
	for i := 0; i < n; i++ {
		p := inputProbs[i]
		for r := 0; r < size; r++ {
			w := weights[r]
			weights[r] = w * (1 - p)
			weights[r|size] = w * p
		}
		size <<= 1
	}
	return weights
}

// MonteCarloProbs estimates signal probabilities by random simulation
// with the given per-input probabilities: the reference for circuits too
// large for ExactProbs.  numPatterns is rounded up to a multiple of 64.
func MonteCarloProbs(c *circuit.Circuit, inputProbs []float64, numPatterns int, seed uint64) ([]float64, error) {
	gen, err := pattern.NewWeighted(inputProbs, seed)
	if err != nil {
		return nil, err
	}
	if gen.NumInputs() != len(c.Inputs) {
		return nil, fmt.Errorf("core: %d probabilities for %d inputs", gen.NumInputs(), len(c.Inputs))
	}
	sim := bitsim.New(c)
	words := make([]uint64, len(c.Inputs))
	counts := make([]int, c.NumNodes())
	blocks := (numPatterns + 63) / 64
	if blocks == 0 {
		blocks = 1
	}
	for bl := 0; bl < blocks; bl++ {
		gen.NextBlock(words)
		if err := sim.SetInputs(words); err != nil {
			panic(err) // words sized from c.Inputs above
		}
		sim.Run()
		vals := sim.Values()
		for id, w := range vals {
			counts[id] += bits.OnesCount64(w)
		}
	}
	probs := make([]float64, c.NumNodes())
	total := float64(blocks * 64)
	for id, n := range counts {
		probs[id] = float64(n) / total
	}
	return probs, nil
}
