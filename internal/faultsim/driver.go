package faultsim

import (
	"context"
	"runtime"
	"sync"

	"protest/internal/pattern"
)

// This file is the one measurement driver of the FFR engine: detection
// counts, coverage curves and shard bodies all run their blocks through
// Plan.RunBlocks, whatever the width and worker count.

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

// engineSet holds one wide engine per width, acquired on first use.
type engineSet struct {
	plan    *Plan
	byWidth [3]boundWide // index widthSlot
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
// hold its input and detection words, and the k <= Width blocks it
// carries.
type chunk struct {
	e boundWide
	k int
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
// the run from 0.  Returning false ends the run.
type BlockVisitor func(j int, det []uint64, stride, lane int) bool

// RunBlocks is the FFR measurement driver.  It simulates n consecutive
// 64-pattern blocks drawn from gen in chunks of width lanes (0 selects
// the default schedule of chunkWidth), runs up to workers chunks per
// wave concurrently, and hands every block to visit in block order.
// FFR groups whose liveGroups entry is false are skipped (nil = all
// live); the set is read while a wave runs and visit is called only
// between waves, so visit may clear entries to drop groups from later
// waves.  The detection words do not depend on width, workers or
// schedule, so neither does anything visit computes.
//
// When visit ends the run early, the generator has still produced every
// block of the current wave: it may end up to workers×8-1 blocks
// further advanced than the visited blocks account for.
func (p *Plan) RunBlocks(ctx context.Context, gen *pattern.Generator, n, width, workers int, liveGroups []bool, visit BlockVisitor) error {
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
	wave := make([]chunk, workers)
	var wg sync.WaitGroup
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
			wave[m] = chunk{e, k}
			b += k
		}
		if m == 1 {
			words, det := wave[0].e.buffers()
			wave[0].e.SimulateChunk(words, det, liveGroups)
		} else {
			for _, ch := range wave[:m] {
				wg.Add(1)
				go func(e boundWide) {
					defer wg.Done()
					words, det := e.buffers()
					e.SimulateChunk(words, det, liveGroups)
				}(ch.e)
			}
			wg.Wait()
		}
		for _, ch := range wave[:m] {
			_, det := ch.e.buffers()
			for l := 0; l < ch.k; l++ {
				if !visit(j, det, ch.e.Width(), l) {
					return nil
				}
				j++
			}
		}
	}
	return nil
}
