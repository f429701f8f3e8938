package optimize

import (
	"context"
	"runtime"
	"testing"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
)

// Optimize must return identical Probs and Objective for every worker
// count: parallel scoring evaluates the whole candidate batch but
// accepts in the same first-improvement order the serial climb uses.
func TestOptimizeWorkersDeterministic(t *testing.T) {
	for _, name := range []string{"cla16", "comp"} {
		c, ok := circuits.Lookup(name)
		if !ok {
			t.Fatalf("unknown circuit %s", name)
		}
		faults := fault.Collapse(c)
		results := make([]*Result, 0, 3)
		for _, workers := range []int{1, 3, 7} {
			an, err := core.NewProgram(c, core.FastParams())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(t.Context(), an, faults, Options{
				MaxSweeps: 2,
				Restarts:  1,
				Seed:      5,
				Workers:   workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		base := results[0]
		for i, res := range results[1:] {
			if res.Objective != base.Objective {
				t.Errorf("%s: workers run %d objective %v != serial %v", name, i+1, res.Objective, base.Objective)
			}
			if res.N != base.N {
				t.Errorf("%s: workers run %d N %v != serial %v", name, i+1, res.N, base.N)
			}
			for k := range base.Probs {
				if res.Probs[k] != base.Probs[k] {
					t.Fatalf("%s: workers run %d probs[%d] = %v != serial %v", name, i+1, k, res.Probs[k], base.Probs[k])
				}
			}
		}
	}
}

// A cancelled context must abort a parallel climb promptly with the
// context error.
func TestOptimizeWorkersCancellation(t *testing.T) {
	c, _ := circuits.Lookup("comp")
	faults := fault.Collapse(c)
	an, err := core.NewProgram(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	_, err = Optimize(ctx, an, faults, Options{
		MaxSweeps: 50,
		Workers:   4,
		OnImprove: func(int, int, float64) {
			evals++
			if evals == 3 {
				cancel()
			}
		},
	})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("expected cancellation error, got %v", err)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// OptimizeMulti with parallel gradient probes must equal the serial
// clustering exactly.
func TestOptimizeMultiWorkersDeterministic(t *testing.T) {
	c, _ := circuits.Lookup("div")
	faults := fault.Collapse(c)
	var base *MultiResult
	for _, workers := range []int{1, 4} {
		an, err := core.NewProgram(c, core.FastParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := OptimizeMulti(t.Context(), an, faults, MultiOptions{
			Sets:   2,
			PerSet: Options{MaxSweeps: 1, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Tuples) != len(base.Tuples) {
			t.Fatalf("workers=%d: %d tuples != %d", workers, len(res.Tuples), len(base.Tuples))
		}
		for ti := range base.Tuples {
			if res.SessionLengths[ti] != base.SessionLengths[ti] {
				t.Errorf("workers=%d: session %d length %d != %d", workers, ti, res.SessionLengths[ti], base.SessionLengths[ti])
			}
			for k := range base.Tuples[ti] {
				if res.Tuples[ti][k] != base.Tuples[ti][k] {
					t.Fatalf("workers=%d: tuple %d[%d] = %v != %v", workers, ti, k, res.Tuples[ti][k], base.Tuples[ti][k])
				}
			}
		}
	}
}

// TestWorkersClampedToGOMAXPROCS pins the oversubscription guard:
// negative and beyond-GOMAXPROCS worker requests both resolve to
// exactly GOMAXPROCS.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, req := range []int{-1, maxProcs + 1, 1000} {
		o := Options{Workers: req}
		o.fill()
		if o.Workers != maxProcs {
			t.Errorf("Workers %d filled to %d, want GOMAXPROCS %d", req, o.Workers, maxProcs)
		}
	}
	o := Options{Workers: 1}
	o.fill()
	if o.Workers != 1 {
		t.Errorf("Workers 1 must stay serial, got %d", o.Workers)
	}
}
