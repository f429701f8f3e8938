package faultsim

import (
	"context"
	"slices"
	"sync"
	"testing"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// Parallel measurement must be bit-identical to the serial one.
func TestParallelMatchesSerial(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	genA := pattern.NewUniform(len(c.Inputs), 31)
	genB := pattern.NewUniform(len(c.Inputs), 31)
	serial := measure(t, c, faults, genA, 1000, Options{})
	parallel := measure(t, c, faults, genB, 1000, Options{Workers: 4})
	if serial.Applied != parallel.Applied {
		t.Fatal("applied mismatch")
	}
	for i := range faults {
		if serial.Detected[i] != parallel.Detected[i] {
			t.Fatalf("fault %d: serial %d parallel %d", i, serial.Detected[i], parallel.Detected[i])
		}
	}
}

func TestParallelDegenerateWorkerCounts(t *testing.T) {
	c := circuits.C17()
	faults := fault.Collapse(c)
	for _, w := range []int{-1, 0, 1, 100} {
		gen := pattern.NewUniform(len(c.Inputs), 7)
		res := measure(t, c, faults, gen, 128, Options{Workers: w})
		if res.Applied != 128 {
			t.Errorf("workers=%d: applied %d", w, res.Applied)
		}
		if res.Coverage() < 1 {
			t.Errorf("workers=%d: coverage %v", w, res.Coverage())
		}
	}
}

func TestParallelRace(t *testing.T) {
	// Exercised under -race in CI runs; keep the workload meaningful.
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 9)
	res := measure(t, c, faults, gen, 256, Options{Workers: 8})
	if res.Coverage() <= 0.5 {
		t.Errorf("implausible MULT coverage %v", res.Coverage())
	}
}

// The parallel coverage curve must be identical to the serial one for
// any worker count: detection words are partition-independent and the
// dropping pass runs serially between blocks.
func TestCoverageCurveParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"mult", "div"} {
		c, ok := circuits.Lookup(name)
		if !ok {
			t.Fatalf("unknown circuit %s", name)
		}
		faults := fault.Collapse(c)
		checkpoints := []int{10, 100, 500, 1000}
		genA := pattern.NewUniform(len(c.Inputs), 13)
		serial := curve(t, c, faults, genA, checkpoints, Options{})
		for _, w := range []int{2, 5, 16} {
			genB := pattern.NewUniform(len(c.Inputs), 13)
			parallel := curve(t, c, faults, genB, checkpoints, Options{Workers: w})
			if len(parallel) != len(serial) {
				t.Fatalf("%s workers=%d: %d points != %d", name, w, len(parallel), len(serial))
			}
			for i := range serial {
				if parallel[i] != serial[i] {
					t.Fatalf("%s workers=%d: point %d = %+v, serial %+v", name, w, i, parallel[i], serial[i])
				}
			}
		}
	}
}

// Cancelling mid-curve must return the context error and a nil curve.
func TestCoverageCurveParallelCancellation(t *testing.T) {
	c := circuits.Mult8()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 3)
	ctx, cancel := context.WithCancel(context.Background())
	blocks := 0
	out, err := NewPlan(c, faults).CoverageCurve(ctx, gen, []int{100000}, Options{Workers: 4}, func(done, total int) {
		blocks++
		if blocks == 2 {
			cancel()
		}
	})
	if err != context.Canceled || out != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", out, err)
	}
}

// A parallel measurement must honor cancellation and report progress
// like the serial one.
func TestMeasureDetectionParallelCtx(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	plan := NewPlan(c, faults)
	gen := pattern.NewUniform(len(c.Inputs), 5)
	var last int
	res, err := plan.MeasureDetection(context.Background(), gen, 320, Options{Workers: 4}, func(done, total int) {
		if done <= last || total != 320 {
			t.Fatalf("bad progress (%d, %d) after %d", done, total, last)
		}
		last = done
	})
	if err != nil || res.Applied != 320 {
		t.Fatalf("got (%+v, %v)", res, err)
	}
	if last != 320 {
		t.Fatalf("final progress %d, want 320", last)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen2 := pattern.NewUniform(len(c.Inputs), 5)
	if _, err := plan.MeasureDetection(ctx, gen2, 320, Options{Workers: 4}, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSharedRegionsConcurrent races the per-circuit compiled code and
// the per-plan fault records: the plans of all three fault models over
// one fresh circuit are run on the engine by several goroutines at
// once, two per plan, so the compiled program and per-stem streams,
// each plan's records and the compiled full cones are each first
// requested concurrently.  Every detection count and capture word must
// equal a serial run on a separate instance of the circuit.
func TestSharedRegionsConcurrent(t *testing.T) {
	const n = 1024
	type run struct {
		detected []int
		capture  []uint64
	}
	simulate := func(plan *Plan) run {
		c := plan.Circuit()
		res, err := plan.MeasureDetection(context.Background(),
			pattern.NewUniform(len(c.Inputs), 9), n, Options{}, nil)
		if err != nil {
			t.Error(err)
			return run{}
		}
		e := plan.AcquireEngine()
		defer e.Release()
		words := make([]uint64, len(c.Inputs)*8)
		det := make([]uint64, len(plan.Faults())*8)
		pattern.NewUniform(len(c.Inputs), 9).NextBlocks(words, 8, 8)
		e.SimulateChunkOutputs(words, det)
		return run{res.Detected, det}
	}
	models := fault.Models()
	ref := circuits.Mult8()
	want := make([]run, len(models))
	for i, m := range models {
		want[i] = simulate(NewPlan(ref, m.Faults(ref)))
	}

	c := circuits.Mult8()
	plans := make([]*Plan, len(models))
	for i, m := range models {
		plans[i] = NewPlan(c, m.Faults(c))
	}
	const goroutines = 6
	got := make([]run, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = simulate(plans[g%len(models)])
		}()
	}
	close(start)
	wg.Wait()
	for g, r := range got {
		w := want[g%len(models)]
		if !slices.Equal(r.detected, w.detected) || !slices.Equal(r.capture, w.capture) {
			t.Fatalf("goroutine %d (%s): concurrent run differs from the serial run", g, models[g%len(models)])
		}
	}
}
