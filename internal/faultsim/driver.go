package faultsim

import (
	"context"
	"runtime"
	"sync"

	"protest/internal/pattern"
)

// This file is the one measurement driver of the FFR engine: detection
// counts, coverage curves and shard bodies all run their blocks through
// Plan.RunBlocks, whatever the width and worker count.  A run either
// counts or visits.  Counting runs (detection counts, local and shard)
// have each chunk's engine add every live fault's detecting patterns
// to a counts slice as it computes them, and no detection word is
// stored.  Visiting runs (coverage curves, local and shard) get every
// block's detection words, because fault dropping needs to know which
// faults a block detected.

// chunkWidth returns the lane count of the next chunk when left blocks
// remain.  An explicit width is used as is, padding a short final
// chunk.  Width 0 picks the schedule: 8-block chunks while at least 8
// blocks remain, then the ragged tail block by block at W=1, so no lane
// is ever simulated empty.  Every chunk runs on the engine of its
// width.  There is no W=4 step for tails of 4 to 7 blocks: each width
// in use holds its own pooled engines, and a server's peak memory grew
// with the third.
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
	byWidth [3]boundWide // index widthSlot
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

// BlockVisitor receives the detection words of one simulated block:
// the word of fault fi is det[fi*stride+lane].  j numbers the blocks of
// the run from 0.  Returning false ends the run.  In a counting run det
// is nil: the visitor learns only that block j is done.
type BlockVisitor func(j int, det []uint64, stride, lane int) bool

// Tally makes a RunBlocks run count: its engines add, for every fault
// fi of a live FFR group, the fault's detecting patterns among the
// first Patterns patterns of the run to Detected[fi].  Detected has
// one entry per plan fault.
type Tally struct {
	Detected []int
	Patterns int
}

// RunBlocks is the FFR measurement driver.  It simulates n consecutive
// 64-pattern blocks drawn from gen in chunks of width lanes (0 selects
// the default schedule of chunkWidth), runs up to workers chunks per
// wave concurrently, and hands every block to visit, when non-nil, in
// block order.  FFR groups whose liveGroups entry is false are skipped
// (nil = all live); the set is read while a wave runs and visit is
// called only between waves, so visit may clear entries to drop groups
// from later waves.  The detection words do not depend on width,
// workers or schedule, so neither does anything visit computes.
//
// With tally non-nil the run counts instead of handing out words: each
// chunk's engine gets one mask per lane (all ones for a full block,
// the valid patterns for the block that holds the tally's last
// pattern, zero past it and for padding lanes) and adds the masked
// words' set bits to the tally as it computes them, storing none.
// With several workers every engine set counts into its own slice, and
// the slices are added to the tally after the run.
//
// When visit ends the run early, the generator has still produced every
// block of the current wave: it may end up to workers×8-1 blocks
// further advanced than the visited blocks account for, and a tally
// holds the counts of every block of the wave.
func (p *Plan) RunBlocks(ctx context.Context, gen *pattern.Generator, n, width, workers int, liveGroups []bool, tally *Tally, visit BlockVisitor) error {
	workers = max(workers, 1)
	sets := make([]engineSet, workers)
	for i := range sets {
		sets[i].plan = p
	}
	defer func() {
		for i := range sets {
			sets[i].release()
		}
	}()
	if tally != nil {
		sets[0].counts = tally.Detected
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
			e := sets[m].get(chunkWidth(width, n-b))
			k := min(e.Width(), n-b)
			words, _ := e.buffers()
			gen.NextBlocks(words, e.Width(), k)
			ch := &wave[m]
			ch.e, ch.k, ch.counts = e, k, sets[m].counts
			if tally != nil {
				ch.lanes = [8]uint64{}
				for l := range k {
					ch.lanes[l] = blockMask(max(tally.Patterns-64*(b+l), 0))
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
			var det []uint64
			if tally == nil {
				_, det = ch.e.buffers()
			}
			for l := 0; l < ch.k; l++ {
				if visit != nil && !visit(j, det, ch.e.Width(), l) {
					break run
				}
				j++
			}
		}
	}
	for _, s := range sets[1:] {
		for fi, c := range s.counts {
			tally.Detected[fi] += c
		}
	}
	return nil
}
