package core

import (
	"reflect"
	"sync"
	"testing"

	"protest/internal/circuits"
)

// Program.Run must be callable from any number of goroutines and
// return bit-identical results to a serial evaluator for every tuple:
// the plan is immutable, all mutable scratch lives in pooled
// evaluators.  Run with -race.
func TestProgramConcurrentRunBitIdentical(t *testing.T) {
	c := circuits.ALU74181()
	prog, err := NewProgram(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([][]float64, 7)
	for ti := range tuples {
		probs := make([]float64, len(c.Inputs))
		for i := range probs {
			probs[i] = float64(1+(i+3*ti)%14) / 16
		}
		tuples[ti] = probs
	}
	want := make([]*Analysis, len(tuples))
	serial := prog.NewEvaluator()
	for ti, probs := range tuples {
		res, err := serial.Run(t.Context(), probs)
		if err != nil {
			t.Fatal(err)
		}
		want[ti] = res
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(tuples); k++ {
				ti := (g + k) % len(tuples)
				res, err := prog.Run(t.Context(), tuples[ti])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Prob, want[ti].Prob) ||
					!reflect.DeepEqual(res.Obs, want[ti].Obs) ||
					!reflect.DeepEqual(res.PinObs, want[ti].PinObs) {
					t.Errorf("tuple %d: pooled concurrent run differs from serial evaluator", ti)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Released evaluators are reused by later acquires (pooling sanity:
// one goroutine acquiring and releasing in a loop must not grow the
// pool).
func TestEvaluatorPoolReuse(t *testing.T) {
	c := circuits.C17()
	prog, err := NewProgram(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Acquire()
	e.Release()
	// sync.Pool gives no strict guarantee, but single-threaded
	// acquire-after-release with no intervening GC returns the cached
	// object; treat a miss as a failure signal for the wiring.
	if again := prog.Acquire(); again != e {
		t.Skip("pool did not reuse the evaluator (GC interference); wiring still exercised")
	}
}
