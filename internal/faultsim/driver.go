package faultsim

import (
	"context"
	"runtime"
	"sync"

	"protest/internal/pattern"
)

// This file is the one measurement driver of the FFR engine and the
// two measurement bodies that run on it.  A body runs over a stretch
// of a block schedule (DetectBlocks, CurveBlocks): a local run
// (Plan.MeasureDetection, Plan.CoverageCurve) passes the whole
// schedule, and a shard worker and its coordinator's local fallback
// pass the shard's block range, so a shard computes exactly what the
// same blocks compute in a local run.  DetectionCounts has each
// chunk's engine add every fault's detecting patterns to a counts
// slice as it computes them, and stores no detection word.
// FirstDetections visits every block's detection words, because fault
// dropping needs to know which faults a block detected.

// chunk is one worker's chunk of a wave: the worker's engine, whose
// buffers hold the chunk's input and detection words, the k <=
// ChunkBlocks blocks it carries, and, in a counting run, its lane
// masks and the counts the worker's chunks add to.
type chunk struct {
	e      *Engine
	k      int
	counts []int
	lanes  [ChunkBlocks]uint64
}

// parallelWorkers resolves an Options.Workers value: <= 1 is serial
// (1), negative selects GOMAXPROCS, and anything above GOMAXPROCS is
// clamped to it.  The goroutines are CPU-bound with no blocking between
// blocks, so running more of them than cores cannot help and the bench
// trail shows oversubscription actively hurting on small machines; the
// block distribution (and therefore every result) is identical either
// way.
func parallelWorkers(workers, nFaults int) int {
	if maxProcs := runtime.GOMAXPROCS(0); workers < 0 || workers > maxProcs {
		workers = maxProcs
	}
	if workers <= 1 || nFaults == 0 {
		return 1
	}
	return workers
}

// DetectionCounts is the detection-count body.  It simulates the
// blocks of a schedule stretch, drawn from gen, which must stand at
// the stretch's first block, and returns for every plan fault the
// number of patterns detecting it among the blocks' valid patterns
// (BlockSpan.Mask).  Counts over disjoint stretches of one run add up
// to the counts of their union.  Between chunks it checks ctx and, on
// cancellation, returns ctx.Err(); progress, when non-nil, receives
// (End, the stretch's last End) after every block.
func (p *Plan) DetectionCounts(ctx context.Context, gen *pattern.Generator, blocks Schedule, opt Options, progress Progress) ([]int, error) {
	counts := make([]int, len(p.faults))
	if err := p.runBlocks(ctx, gen, blocks, opt, progress, nil, counts, nil); err != nil {
		return nil, err
	}
	return counts, nil
}

// FirstDetections is the first-detection body of a coverage curve.  It
// simulates the blocks of a schedule stretch as DetectionCounts does,
// with fault dropping, and returns every plan fault's first-detection
// position: the End of the earliest block whose valid patterns detect
// it, or -1 when none does.  Dropping drops whole FFR groups: once
// every fault of a region is detected, the region is never traced
// again, and once every fault is, the remaining blocks are skipped.
// The minimum over disjoint stretches of one run is the position in
// their union; CurveOf turns positions into the curve.  Cancellation
// and progress work as in DetectionCounts.
func (p *Plan) FirstDetections(ctx context.Context, gen *pattern.Generator, blocks Schedule, opt Options, progress Progress) ([]int, error) {
	first := make([]int, len(p.faults))
	alive := make([]int32, len(p.faults))     // faults without a first position
	live := make([]int32, p.part.NumGroups()) // undetected faults per FFR group
	liveGroups := make([]bool, p.part.NumGroups())
	for fi := range first {
		first[fi] = -1
		alive[fi] = int32(fi)
		g := p.part.GroupOf[fi]
		live[g]++
		liveGroups[g] = true
	}
	err := p.runBlocks(ctx, gen, blocks, opt, progress, liveGroups, nil, func(j int, det []uint64, stride, lane int) bool {
		b := blocks.Block(j)
		w := 0
		for _, fi := range alive {
			if det[int(fi)*stride+lane]&b.Mask == 0 {
				alive[w] = fi
				w++
				continue
			}
			first[fi] = b.End
			g := p.part.GroupOf[fi]
			if live[g]--; live[g] == 0 {
				liveGroups[g] = false
			}
		}
		alive = alive[:w]
		return len(alive) > 0
	})
	if err != nil {
		return nil, err
	}
	return first, nil
}

// blockVisitor receives the detection words of block j of a stretch:
// the word of fault fi is det[fi*stride+lane].  Returning false ends
// the run.
type blockVisitor func(j int, det []uint64, stride, lane int) bool

// runBlocks is the FFR measurement driver.  It simulates the blocks of
// a schedule stretch, drawn from gen, in chunks of ChunkBlocks lanes,
// padding the last chunk with empty lanes, runs up to opt.Workers
// chunks per wave concurrently, one engine per worker, and hands every
// block to visit, when non-nil, in block order.  FFR groups whose
// liveGroups entry is false are skipped (nil = all live); the set is
// read while a wave runs and visit is called only between waves, so
// visit may clear entries to drop groups from later waves.  The detection words do not depend on
// workers or schedule, so neither does anything visit computes.
//
// With counts non-nil the run counts instead of handing out words:
// each chunk's engine gets its blocks' masks as lane masks (zero for
// padding lanes) and adds the masked words' set bits to counts as it
// computes them, storing none.  With several workers every worker
// counts into its own slice, and the slices are added to counts after
// the run.
//
// When visit ends the run early, progress gets one final (total,
// total) call, and the generator has still produced every block of the
// current wave: it may end up to workers×8-1 blocks further advanced
// than the visited blocks account for.
func (p *Plan) runBlocks(ctx context.Context, gen *pattern.Generator, blocks Schedule, opt Options, progress Progress, liveGroups []bool, counts []int, visit blockVisitor) error {
	n := blocks.Len()
	if n == 0 {
		return nil
	}
	total := blocks.Block(n - 1).End
	// More workers than chunks would hold idle engines.
	workers := min(parallelWorkers(opt.Workers, len(p.faults)), (n+ChunkBlocks-1)/ChunkBlocks)
	wave := make([]chunk, workers)
	for i := range wave {
		wave[i].e = p.AcquireEngine()
	}
	defer func() {
		for _, ch := range wave {
			ch.e.Release()
		}
	}()
	if counts != nil {
		wave[0].counts = counts
		for i := 1; i < workers; i++ {
			wave[i].counts = make([]int, len(p.faults))
		}
	}
	var wg sync.WaitGroup
run:
	for j := 0; j < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := 0
		for b := j; m < workers && b < n; m++ {
			ch := &wave[m]
			ch.k = min(ChunkBlocks, n-b)
			gen.NextBlocks(ch.e.words, ChunkBlocks, ch.k)
			if counts != nil {
				ch.lanes = [ChunkBlocks]uint64{}
				for l := range ch.k {
					ch.lanes[l] = blocks.Block(b + l).Mask
				}
			}
			b += ch.k
		}
		if m == 1 {
			ch := &wave[0]
			ch.e.simulate(ch.e.words, ch.e.det, ch.lanes[:], ch.counts, liveGroups)
		} else {
			for i := range wave[:m] {
				wg.Add(1)
				go func(ch *chunk) {
					defer wg.Done()
					ch.e.simulate(ch.e.words, ch.e.det, ch.lanes[:], ch.counts, liveGroups)
				}(&wave[i])
			}
			wg.Wait()
		}
		for _, ch := range wave[:m] {
			for l := 0; l < ch.k; l++ {
				if progress != nil {
					progress(blocks.Block(j).End, total)
				}
				if visit != nil && !visit(j, ch.e.det, ChunkBlocks, l) {
					if progress != nil && j+1 < n {
						progress(total, total)
					}
					break run
				}
				j++
			}
		}
	}
	for _, ch := range wave[1:] {
		for fi, c := range ch.counts {
			counts[fi] += c
		}
	}
	return nil
}
