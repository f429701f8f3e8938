package faultsim

import (
	"context"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// TestMain raises GOMAXPROCS so the parallel paths stay exercised even
// on single-CPU CI containers: parallelWorkers now clamps worker
// counts to GOMAXPROCS, which would silently turn every parallel test
// serial on one core.  GOMAXPROCS may legally exceed the physical CPU
// count; correctness tests only need the goroutines to exist.
//
// The identity tables that compare engines, widths and worker counts
// against the naive oracle call t.Parallel: they share nothing mutable
// but the naive references (sharedNaive), and under the race detector
// they take most of the package's time.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// wideWidths are the wide engine's lane counts; widthCases adds the
// default schedule (Options.Width 0) for the measurement tables.
var (
	wideWidths = []int{1, 8}
	widthCases = []int{0, 1, 8}
)

// raggedCounts are pattern budgets that end mid-block (1, 63, 65, 581),
// fill whole 8-block chunks (512), or leave a 1-block tail after whole
// chunks (1088 = 17 blocks), so every width runs full chunks, padded
// last chunks, or both.
var raggedCounts = []int{1, 63, 65, 512, 581, 1088}

// naiveRef is the naive oracle's reference for one pattern stream: the
// input and detection words of the first blocks of seed's uniform
// stream over (c, faults), one slice per block.  Under the race
// detector the naive oracle takes most of the identity tests' time, so
// the tests share one reference per (circuit, fault list, seed) through
// sharedNaive, and blocks simulates the blocks it adds in parallel,
// each goroutine on its own Simulator.  Blocks are independent, so the
// words are those of one serial pass.
type naiveRef struct {
	c      *circuit.Circuit
	faults []fault.Fault
	seed   uint64

	mu      sync.Mutex
	gen     *pattern.Generator
	in, det [][]uint64
}

func newNaive(c *circuit.Circuit, faults []fault.Fault, seed uint64) *naiveRef {
	return &naiveRef{c: c, faults: faults, seed: seed, gen: pattern.NewUniform(len(c.Inputs), seed)}
}

// sharedRefs holds the references sharedNaive has handed out.
var sharedRefs struct {
	sync.Mutex
	refs []*naiveRef
}

// sharedNaive returns the reference of (c, faults, seed) shared by every
// test in the binary.  Fuzz targets, which build a circuit per input,
// use newNaive instead.
func sharedNaive(c *circuit.Circuit, faults []fault.Fault, seed uint64) *naiveRef {
	sharedRefs.Lock()
	defer sharedRefs.Unlock()
	for _, r := range sharedRefs.refs {
		if r.seed == seed && circuit.Equal(r.c, c) && slices.Equal(r.faults, faults) {
			return r
		}
	}
	r := newNaive(c, faults, seed)
	sharedRefs.refs = append(sharedRefs.refs, r)
	return r
}

// blocks returns the input and detection words of the stream's first n
// blocks.  The caller must not modify them.
func (r *naiveRef) blocks(n int) (in, det [][]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.det)
	for len(r.in) < n {
		words := make([]uint64, len(r.c.Inputs))
		r.gen.NextBlock(words)
		r.in = append(r.in, words)
		r.det = append(r.det, make([]uint64, len(r.faults)))
	}
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n-have)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := New(r.c)
			for b := have + w; b < n; b += workers {
				sim.SimulateBlock(r.in[b], r.faults, r.det[b])
			}
		}()
	}
	wg.Wait()
	return r.in[:n], r.det[:n]
}

// counts returns the naive detection counts for every budget in
// budgets: the count for n patterns sums each block's masked popcounts
// up to n.
func (r *naiveRef) counts(budgets []int) map[int][]int {
	_, det := r.blocks((slices.Max(budgets) + 63) / 64)
	out := make(map[int][]int, len(budgets))
	for _, n := range budgets {
		out[n] = make([]int, len(r.faults))
		for b := 0; b*64 < n; b++ {
			mask := blockMask(n - b*64)
			for i, d := range det[b] {
				out[n][i] += bits.OnesCount64(d & mask)
			}
		}
	}
	return out
}

// naiveCurve is the naive-oracle coverage-curve reference.
func naiveCurve(t *testing.T, plan *Plan, seed uint64, cps []int) []CoveragePoint {
	t.Helper()
	res, err := CoverageCurveNaive(context.Background(), plan.c, plan.faults,
		pattern.NewUniform(len(plan.c.Inputs), seed), cps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWideChunkIdentity drives the wide engine chunk-by-chunk at W = 8
// against the naive oracle block-by-block on the same pattern stream
// and requires lane-for-lane identical detection words, including the
// ragged final chunk (11 blocks is 3 mod 8).  TestEngineBlockIdentity
// covers W = 1.
func TestWideChunkIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range engineTestCircuits() {
		checkChunkIdentity(t, c, fault.Collapse(c), 42, 11, []int{8})
	}
}

// checkChunkIdentity takes nBlocks blocks of the uniform stream of seed
// from the shared naive reference, then runs the same stream through the
// wide engine at each of widths and requires every lane's detection
// words to equal its block's.  A block count that is not a multiple of
// the width covers a short final chunk.
func checkChunkIdentity(t *testing.T, c *circuit.Circuit, faults []fault.Fault, seed uint64, nBlocks int, widths []int) {
	t.Helper()
	refWords, refDet := sharedNaive(c, faults, seed).blocks(nBlocks)

	plan := NewPlan(c, faults)
	for _, w := range widths {
		e := plan.AcquireWideEngine(w)
		if e.Width() != w {
			t.Fatalf("%s: AcquireWideEngine(%d).Width() = %d", c.Name, w, e.Width())
		}
		gen := pattern.NewUniform(len(c.Inputs), seed)
		in := make([]uint64, len(c.Inputs)*w)
		det := make([]uint64, len(faults)*w)
		for base := 0; base < nBlocks; base += w {
			k := min(w, nBlocks-base)
			gen.NextBlocks(in, w, k)
			for i := range c.Inputs {
				for l := 0; l < k; l++ {
					if in[i*w+l] != refWords[base+l][i] {
						t.Fatalf("%s width %d: input stream diverges at block %d", c.Name, w, base+l)
					}
				}
			}
			e.SimulateChunk(in, det, nil)
			for fi := range faults {
				for l := 0; l < k; l++ {
					if got, exp := det[fi*w+l], refDet[base+l][fi]; got != exp {
						t.Fatalf("%s width %d block %d fault %v: FFR %016x != naive %016x",
							c.Name, w, base+l, faults[fi], got, exp)
					}
				}
			}
		}
		e.Release()
	}
}

// TestWideMeasureDetectionIdentity compares whole measurements across
// widths, including the default schedule, and worker counts: on every
// ragged pattern budget, detection counts must match the naive oracle
// exactly.  Parallel runs take the longest budget.
func TestWideMeasureDetectionIdentity(t *testing.T) {
	t.Parallel()
	for _, c := range widthTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		want := sharedNaive(c, faults, 3).counts(raggedCounts)
		for _, n := range raggedCounts {
			for _, w := range widthCases {
				for _, workers := range []int{1, 3} {
					if workers > 1 && n != slices.Max(raggedCounts) {
						continue
					}
					got, err := plan.MeasureDetection(context.Background(),
						pattern.NewUniform(len(c.Inputs), 3), n,
						Options{Width: w, Workers: workers}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Applied != n {
						t.Fatalf("%s n=%d width %d workers %d: applied %d", c.Name, n, w, workers, got.Applied)
					}
					for i := range faults {
						if got.Detected[i] != want[n][i] {
							t.Fatalf("%s n=%d width %d workers %d fault %v: detected %d != %d",
								c.Name, n, w, workers, faults[i], got.Detected[i], want[n][i])
						}
					}
				}
			}
		}
	}
}

// TestWideCoverageCurveIdentity compares fault-dropping coverage curves
// across widths, including the default schedule, and worker counts
// against the naive oracle's curve.  The checkpoints are the ragged
// budgets, so the segments between them (1, 62, 2, 447, 69 and 507
// patterns) end mid-block and run as W=1 tails or 8-block chunks.
func TestWideCoverageCurveIdentity(t *testing.T) {
	t.Parallel()
	cps := raggedCounts
	for _, c := range widthTestCircuits() {
		faults := fault.Collapse(c)
		plan := NewPlan(c, faults)
		ref := naiveCurve(t, plan, 11, cps)
		for _, w := range widthCases {
			for _, workers := range []int{1, 3} {
				got, err := plan.CoverageCurve(context.Background(),
					pattern.NewUniform(len(c.Inputs), 11), cps,
					Options{Width: w, Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s width %d: %d points != %d", c.Name, w, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s width %d workers %d: point %d %+v != %+v",
							c.Name, w, workers, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestWideCaptureIdentity pins the capture path (BIST response
// composition) at W = 8 against the naive oracle on c17, the
// ALU, mult8, a random circuit and the truth-table circuit.  div16 and
// comp24 are left out: the per-fault naive capture costs seconds
// there.  TestEngineCaptureOutputs covers W = 1.
func TestWideCaptureIdentity(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.ALU74181(), circuits.Mult8(),
		circuits.Random(circuits.RandomOptions{Inputs: 9, Gates: 70, Outputs: 4, Seed: 3}),
		circuits.Tables()} {
		checkCaptureIdentity(t, c, fault.Collapse(c), 5, []int{8})
	}
}

// checkCaptureIdentity runs 7 blocks (a ragged chunk at width 8)
// through the wide capture at each of widths and requires, lane for
// lane, the naive oracle's detection, good output and faulty output
// words (Simulator.SimulateFaultBlock).
func checkCaptureIdentity(t *testing.T, c *circuit.Circuit, faults []fault.Fault, seed uint64, widths []int) {
	t.Helper()
	nOut := len(c.Outputs)
	const nBlocks = 7
	type blockRef struct {
		det     []uint64
		goodOut []uint64
		fOut    [][]uint64
	}
	refs := make([]blockRef, nBlocks)
	naive := New(c)
	gen := pattern.NewUniform(len(c.Inputs), seed)
	words := make([]uint64, len(c.Inputs))
	for b := range refs {
		gen.NextBlock(words)
		r := blockRef{
			det:     make([]uint64, len(faults)),
			goodOut: make([]uint64, nOut),
			fOut:    make([][]uint64, len(faults)),
		}
		naive.SimulateBlock(words, nil, nil)
		naive.GoodOutputWords(r.goodOut)
		for fi, f := range faults {
			r.fOut[fi] = make([]uint64, nOut)
			r.det[fi] = naive.SimulateFaultBlock(words, f, r.fOut[fi])
		}
		refs[b] = r
	}

	plan := NewPlan(c, faults)
	out := make([]uint64, nOut)
	for _, w := range widths {
		e := plan.AcquireWideEngine(w)
		gen := pattern.NewUniform(len(c.Inputs), seed)
		in := make([]uint64, len(c.Inputs)*w)
		det := make([]uint64, len(faults)*w)
		for base := 0; base < nBlocks; base += w {
			k := min(w, nBlocks-base)
			gen.NextBlocks(in, w, k)
			e.SimulateChunkOutputs(in, det)
			for l := 0; l < k; l++ {
				r := &refs[base+l]
				e.GoodOutputWords(l, out)
				if !slices.Equal(out, r.goodOut) {
					t.Fatalf("%s width %d block %d: good outputs %016x != naive %016x",
						c.Name, w, base+l, out, r.goodOut)
				}
				for fi := range faults {
					if det[fi*w+l] != r.det[fi] {
						t.Fatalf("%s width %d block %d fault %v: capture det %016x != naive %016x",
							c.Name, w, base+l, faults[fi], det[fi*w+l], r.det[fi])
					}
					e.FaultOutputs(fi, l, out)
					if !slices.Equal(out, r.fOut[fi]) {
						t.Fatalf("%s width %d block %d fault %v: faulty outputs %016x != naive %016x",
							c.Name, w, base+l, faults[fi], out, r.fOut[fi])
					}
				}
			}
		}
		e.Release()
	}
}

// TestOptionsWidthValidation rejects unsupported widths, 4 included,
// with an error, not a panic, on both measurement entry points.
func TestOptionsWidthValidation(t *testing.T) {
	c := engineTestCircuits()[0]
	faults := fault.Collapse(c)
	plan := NewPlan(c, faults)
	for _, bad := range []int{-1, 2, 3, 4, 16} {
		if _, err := plan.MeasureDetection(context.Background(),
			pattern.NewUniform(len(c.Inputs), 1), 128, Options{Width: bad}, nil); err == nil {
			t.Fatalf("MeasureDetection accepted width %d", bad)
		}
		if _, err := plan.CoverageCurve(context.Background(),
			pattern.NewUniform(len(c.Inputs), 1), []int{128}, Options{Width: bad}, nil); err == nil {
			t.Fatalf("CoverageCurve accepted width %d", bad)
		}
	}
}

// TestParallelWorkersClamp pins the Workers contract: negative selects
// GOMAXPROCS, values above GOMAXPROCS clamp to it, small values pass
// through.
func TestParallelWorkersClamp(t *testing.T) {
	maxProcs := runtime.GOMAXPROCS(0)
	if got := parallelWorkers(-1, 10); got != maxProcs {
		t.Fatalf("parallelWorkers(-1) = %d, want %d", got, maxProcs)
	}
	if got := parallelWorkers(maxProcs+7, 10); got != maxProcs {
		t.Fatalf("parallelWorkers(max+7) = %d, want %d", got, maxProcs)
	}
	if got := parallelWorkers(2, 10); got != 2 {
		t.Fatalf("parallelWorkers(2) = %d, want 2", got)
	}
	if got := parallelWorkers(8, 0); got != 1 {
		t.Fatalf("parallelWorkers with no faults = %d, want 1", got)
	}
}
