package faultsim

import (
	"context"
	"sync"

	"protest/internal/pattern"
)

// This file is the one measurement driver of the FFR engines: detection
// counts, coverage curves and shard bodies all run their blocks through
// Plan.RunBlocks, whatever the width and worker count.

// chunkEngine is what the driver runs: an FFR engine simulating W
// consecutive 64-pattern blocks per call in the lane-major layout, with
// its own input and detection word buffers.  The narrow Engine is the
// W=1 instance, the wide engines the W=4 and W=8 ones.
type chunkEngine interface {
	Width() int
	SimulateChunk(inputWords, det []uint64, liveGroups []bool)
	buffers() (words, det []uint64)
	Release()
}

// narrowChunks runs the narrow Engine as the driver's one-lane engine:
// at W=1 the lane-major layout is the narrow one.  Narrow engines are
// pooled per plan, so their word buffers live only as long as one run
// instead of as long as the plan.
type narrowChunks struct {
	*Engine
	words, det []uint64
}

func (narrowChunks) Width() int { return 1 }

func (n narrowChunks) SimulateChunk(inputWords, det []uint64, liveGroups []bool) {
	n.SimulateBlock(inputWords, det, liveGroups)
}

func (n narrowChunks) buffers() (words, det []uint64) { return n.words, n.det }

// chunkWidth returns the lane count of the next chunk when left blocks
// remain.  An explicit width is used as is, padding a short final
// chunk.  Width 0 picks the schedule: 8-block chunks on the wide engine
// while at least 8 blocks remain, then the ragged tail block by block
// on the narrow Engine, so no lane is ever simulated empty.  The tail
// runs on the narrow Engine, as explicit width 1 does, although the
// wide engine at W=1 is the faster of the two on every circuit measured
// (c432, c880, c499, c1355, mult): moving both onto it is the change
// that retires the narrow Engine.  There is no W=4 step for tails of 4
// to 7 blocks: each width in use holds its own pooled engines, and a
// server's peak memory grew with the third.
func chunkWidth(width, left int) int {
	switch {
	case width != 0:
		return width
	case left >= 8:
		return 8
	}
	return 1
}

// engineSet holds one chunk engine per width, acquired on first use.
type engineSet struct {
	plan    *Plan
	byWidth [3]chunkEngine // index widthSlot
}

func (s *engineSet) get(width int) chunkEngine {
	i := widthSlot(width)
	if s.byWidth[i] == nil {
		if width == 1 {
			p := s.plan
			s.byWidth[i] = narrowChunks{p.AcquireEngine(), make([]uint64, len(p.c.Inputs)), make([]uint64, len(p.faults))}
		} else {
			s.byWidth[i] = s.plan.acquireWide(width)
		}
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
	e chunkEngine
	k int
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
				go func(e chunkEngine) {
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
