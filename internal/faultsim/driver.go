package faultsim

import (
	"context"
	"runtime"
	"sync"

	"protest/internal/pattern"
	"protest/internal/widesim"
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

// chunkWidth returns the lane count of the next chunk when left blocks
// remain.  An explicit width is used as is, padding a short final
// chunk.  Width 0 picks the schedule: 8-block chunks while at least 8
// blocks remain, then the ragged tail block by block at W=1, so no lane
// is ever simulated empty.  Every chunk runs on the engine of its
// width.
func chunkWidth(width, left int) int {
	switch {
	case width != 0:
		return width
	case left >= 8:
		return 8
	}
	return 1
}

// engineSet holds one wide engine per width, acquired on first use,
// and, in a counting run, the counts its chunks add to.
type engineSet struct {
	plan    *Plan
	byWidth [2]boundWide // index widthSlot
	counts  []int
}

func (s *engineSet) get(width int) boundWide {
	i := widthSlot(width)
	if s.byWidth[i] == nil {
		s.byWidth[i] = s.plan.acquireWide(width)
	}
	return s.byWidth[i]
}

func (s *engineSet) release() {
	for _, e := range s.byWidth {
		if e != nil {
			e.Release()
		}
	}
}

// chunk is one scheduled chunk of a wave: its engine, whose buffers
// hold its input and detection words, the k <= Width blocks it
// carries, and, in a counting run, its counts and lane masks.
type chunk struct {
	e      boundWide
	k      int
	counts []int
	lanes  [8]uint64
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
// a schedule stretch, drawn from gen, in chunks of opt.Width lanes (0
// selects the default schedule of chunkWidth), runs up to opt.Workers
// chunks per wave concurrently, and hands every block to visit, when
// non-nil, in block order.  FFR groups whose liveGroups entry is false
// are skipped (nil = all live); the set is read while a wave runs and
// visit is called only between waves, so visit may clear entries to
// drop groups from later waves.  The detection words do not depend on
// width, workers or schedule, so neither does anything visit computes.
//
// With counts non-nil the run counts instead of handing out words:
// each chunk's engine gets its blocks' masks as lane masks (zero for
// padding lanes) and adds the masked words' set bits to counts as it
// computes them, storing none.  With several workers every engine set
// counts into its own slice, and the slices are added to counts after
// the run.
//
// When visit ends the run early, progress gets one final (total,
// total) call, and the generator has still produced every block of the
// current wave: it may end up to workers×8-1 blocks further advanced
// than the visited blocks account for.
func (p *Plan) runBlocks(ctx context.Context, gen *pattern.Generator, blocks Schedule, opt Options, progress Progress, liveGroups []bool, counts []int, visit blockVisitor) error {
	if err := widesim.CheckWidth(opt.Width); err != nil {
		return err
	}
	n := blocks.Len()
	if n == 0 {
		return nil
	}
	total := blocks.Block(n - 1).End
	workers := parallelWorkers(opt.Workers, len(p.faults))
	sets := make([]engineSet, workers)
	for i := range sets {
		sets[i].plan = p
	}
	defer func() {
		for i := range sets {
			sets[i].release()
		}
	}()
	if counts != nil {
		sets[0].counts = counts
		for i := 1; i < workers; i++ {
			sets[i].counts = make([]int, len(p.faults))
		}
	}
	wave := make([]chunk, workers)
	var wg sync.WaitGroup
run:
	for j := 0; j < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := 0
		for b := j; m < workers && b < n; m++ {
			e := sets[m].get(chunkWidth(opt.Width, n-b))
			k := min(e.Width(), n-b)
			words, _ := e.buffers()
			gen.NextBlocks(words, e.Width(), k)
			ch := &wave[m]
			ch.e, ch.k, ch.counts = e, k, sets[m].counts
			if counts != nil {
				ch.lanes = [8]uint64{}
				for l := range k {
					ch.lanes[l] = blocks.Block(b + l).Mask
				}
			}
			b += k
		}
		if m == 1 {
			ch := &wave[0]
			words, det := ch.e.buffers()
			ch.e.simulate(words, det, ch.lanes[:ch.e.Width()], ch.counts, liveGroups)
		} else {
			for i := range wave[:m] {
				wg.Add(1)
				go func(ch *chunk) {
					defer wg.Done()
					words, det := ch.e.buffers()
					ch.e.simulate(words, det, ch.lanes[:ch.e.Width()], ch.counts, liveGroups)
				}(&wave[i])
			}
			wg.Wait()
		}
		for _, ch := range wave[:m] {
			_, det := ch.e.buffers()
			for l := 0; l < ch.k; l++ {
				if progress != nil {
					progress(blocks.Block(j).End, total)
				}
				if visit != nil && !visit(j, det, ch.e.Width(), l) {
					if progress != nil && j+1 < n {
						progress(total, total)
					}
					break run
				}
				j++
			}
		}
	}
	for _, s := range sets[1:] {
		for fi, c := range s.counts {
			counts[fi] += c
		}
	}
	return nil
}
