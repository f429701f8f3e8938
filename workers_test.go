package protest

import (
	"context"
	"reflect"
	"testing"
)

// WithWorkers must not change any result: simulation counts, optimized
// tuples and whole pipeline reports are identical for every worker
// count.
func TestSessionWorkersIdenticalResults(t *testing.T) {
	c, _ := Benchmark("mult")
	serial, err := Open(c, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := Benchmark("mult")
	parallel, err := Open(c2, WithSeed(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s1, err := serial.Simulate(ctx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := parallel.Simulate(ctx, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Detected, s2.Detected) || s1.Applied != s2.Applied {
		t.Fatal("parallel simulation diverged from serial")
	}

	p1, err := serial.CoverageCurve(ctx, nil, []int{50, 500})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := parallel.CoverageCurve(ctx, nil, []int{50, 500})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("parallel coverage curve %v != serial %v", p2, p1)
	}

	o1, err := serial.Optimize(ctx, OptimizeOptions{MaxSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := parallel.Optimize(ctx, OptimizeOptions{MaxSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o1.Objective != o2.Objective || !reflect.DeepEqual(o1.Probs, o2.Probs) {
		t.Fatalf("parallel optimize diverged: %v/%v vs %v/%v", o2.Objective, o2.Probs, o1.Objective, o1.Probs)
	}
}

// A pipeline on a Session opened WithWorkers(3) must report exactly
// what a serial Session reports.
func TestPipelineWorkersOverride(t *testing.T) {
	ctx := context.Background()
	spec := PipelineSpec{Optimize: true, OptimizeOptions: OptimizeOptions{MaxSweeps: 1}, SimPatterns: 512}

	c1, _ := Benchmark("alu")
	serial, err := Open(c1, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := serial.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := Benchmark("alu")
	s2, err := Open(c2, WithSeed(9), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("workers=3 report diverged:\n%v\nvs\n%v", r2, r1)
	}
}
