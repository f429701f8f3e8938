package faultsim

import (
	"context"
	"math/bits"
	"sync/atomic"
	"time"

	"protest/internal/coalesce"
	"protest/internal/pattern"
	"protest/internal/widesim"
)

// LaneBatcher packs concurrent single-block simulation requests into
// spare lanes of one wide sweep.  Each caller submits one 64-pattern
// block; the batcher fills a W-lane chunk with up to W blocks from
// distinct callers (flushing early after a max-wait window) and runs
// them through one wide engine pass — one good simulation and one
// amortized fault-propagation sweep serve every packed request.  Each
// lane's detection words are exactly the words a dedicated narrow
// SimulateBlock call would produce, so batching is invisible in
// results; it only changes how many sweeps the plan runs.
//
// The batcher is safe for concurrent use and is the cross-request
// analogue of Options.Width: Width widens one measurement's own
// chunks, a LaneBatcher widens across measurements that happen to run
// concurrently on the same plan.
type LaneBatcher struct {
	plan  *Plan
	width int
	b     *coalesce.Batcher[struct{}, []uint64, []uint64]

	sweeps atomic.Int64
	blocks atomic.Int64
}

// NewLaneBatcher creates a batcher over the plan packing up to width
// (1, 4 or 8; 0 means 1) blocks per sweep, waiting at most wait after
// a sweep's first block before flushing it partially filled.
func (p *Plan) NewLaneBatcher(width int, wait time.Duration) (*LaneBatcher, error) {
	if err := widesim.CheckWidth(width); err != nil {
		return nil, err
	}
	if width == 0 {
		width = 1
	}
	lb := &LaneBatcher{plan: p, width: width}
	lb.b = coalesce.NewBatcher(lb.width, wait, lb.flush)
	return lb, nil
}

// Width returns the number of lanes a full sweep carries.
func (lb *LaneBatcher) Width() int { return lb.width }

// flush runs one wide sweep over up to width packed blocks.  Spare
// lanes stay zero; every group is live — detection words are exact for
// every fault regardless, and distinct callers want distinct faults.
func (lb *LaneBatcher) flush(_ struct{}, reqs [][]uint64) ([][]uint64, error) {
	w := lb.width
	lb.sweeps.Add(1)
	lb.blocks.Add(int64(len(reqs)))
	eng := lb.plan.acquireWide(w)
	defer eng.Release()
	nf := len(lb.plan.faults)
	inWords, det := eng.buffers()
	clear(inWords)
	for l, words := range reqs {
		for i, v := range words {
			inWords[i*w+l] = v
		}
	}
	eng.SimulateChunk(inWords, det, nil)
	out := make([][]uint64, len(reqs))
	for l := range reqs {
		d := make([]uint64, nf)
		for fi := range d {
			d[fi] = det[fi*w+l]
		}
		out[l] = d
	}
	return out, nil
}

// SimulateBlock submits one 64-pattern block (words, one uint64 per
// circuit input) and blocks until its sweep runs, returning the
// per-fault detection words — bit-identical to Engine.SimulateBlock
// with all groups live.  words must stay unmodified until return.
func (lb *LaneBatcher) SimulateBlock(ctx context.Context, words []uint64) ([]uint64, error) {
	return lb.b.Submit(ctx, struct{}{}, words)
}

// MeasureDetectionCtx runs the serial detection measurement with every
// block routed through the batcher, so concurrent measurements on one
// plan share sweeps.  The result is bit-identical to the plan's own
// MeasureDetectionCtx at any width.
func (lb *LaneBatcher) MeasureDetectionCtx(ctx context.Context, gen *pattern.Generator, numPatterns int, progress Progress) (*Result, error) {
	p := lb.plan
	res := &Result{
		Faults:   p.faults,
		Detected: make([]int, len(p.faults)),
	}
	words := make([]uint64, len(p.c.Inputs))
	for applied := 0; applied < numPatterns; applied += 64 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gen.NextBlock(words)
		mask := blockMask(numPatterns - applied)
		det, err := lb.SimulateBlock(ctx, words)
		if err != nil {
			return nil, err
		}
		for i, d := range det {
			res.Detected[i] += bits.OnesCount64(d & mask)
		}
		if progress != nil {
			progress(min(applied+64, numPatterns), numPatterns)
		}
	}
	res.Applied = numPatterns
	return res, nil
}

// LaneStats is a snapshot of a LaneBatcher's counters.
type LaneStats struct {
	// Sweeps counts wide engine passes run; Blocks the single-block
	// requests they carried, so Blocks/Sweeps is the mean lane
	// occupancy (1 = no cross-request sharing happened).
	Sweeps int64 `json:"sweeps"`
	Blocks int64 `json:"blocks"`
	// MeanLanes is Blocks/Sweeps, 0 before the first sweep.
	MeanLanes float64 `json:"mean_lanes"`
}

// Stats returns a snapshot of the batcher's counters.
func (lb *LaneBatcher) Stats() LaneStats {
	st := LaneStats{Sweeps: lb.sweeps.Load(), Blocks: lb.blocks.Load()}
	if st.Sweeps > 0 {
		st.MeanLanes = float64(st.Blocks) / float64(st.Sweeps)
	}
	return st
}

// Close flushes pending blocks and rejects further submissions.
func (lb *LaneBatcher) Close() { lb.b.Close() }
