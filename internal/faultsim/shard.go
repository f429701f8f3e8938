package faultsim

import "sort"

// This file exports the deterministic shard boundaries of the two
// measurement loops, so a distributed coordinator and its workers can
// agree — without any communication — on exactly which 64-pattern
// blocks a run consists of, which patterns of each block count, and
// how many patterns have been applied once a block has run.  The
// schedules below are derived from the same arithmetic the serial
// loops use; the shard engine's exactness proof rests on that.

// BlockSpan describes one 64-pattern block of a measurement run: the
// valid-pattern mask (bit b set = pattern b of the block counts) and
// the cumulative number of patterns applied once the block has run.
type BlockSpan struct {
	Mask uint64
	End  int
}

// ChunkBlocks returns the number of blocks a full chunk of the
// schedule at width carries: the width itself, or 8 for the default
// schedule (chunkWidth).  A block range that starts at a multiple of
// it, and ends at one or at the run's end, simulates the same chunks
// as that stretch of the whole run.
func ChunkBlocks(width int) int { return chunkWidth(width, 8) }

// DetectBlocks returns the block schedule of a detection-probability
// run over numPatterns patterns: ceil(numPatterns/64) blocks, every
// mask full except the last, which keeps only the remainder — exactly
// the masks the serial MeasureDetection loop applies.
func DetectBlocks(numPatterns int) []BlockSpan {
	out := make([]BlockSpan, 0, max(0, (numPatterns+63)/64))
	for applied := 0; applied < numPatterns; applied += 64 {
		out = append(out, BlockSpan{
			Mask: blockMask(numPatterns - applied),
			End:  min(applied+64, numPatterns),
		})
	}
	return out
}

// CurveBlocks returns the block schedule of a coverage-curve run:
// blocks restart at every checkpoint (a segment whose remainder is
// under 64 patterns ends with a short, masked block), mirroring the
// serial CoverageCurve loop.  Checkpoints are sorted internally, as
// the serial loop sorts them.
//
// The serial loop additionally stops simulating once every fault is
// detected; a worker running the full schedule anyway produces the
// same result, because detected faults never change state again.
func CurveBlocks(checkpoints []int) []BlockSpan {
	cps := append([]int(nil), checkpoints...)
	sort.Ints(cps)
	n, prev := 0, 0
	for _, cp := range cps {
		if cp > prev {
			n += (cp - prev + 63) / 64
			prev = cp
		}
	}
	out := make([]BlockSpan, 0, n)
	applied := 0
	for _, cp := range cps {
		for applied < cp {
			valid := cp - applied
			mask := blockMask(valid)
			applied += min(64, valid)
			out = append(out, BlockSpan{Mask: mask, End: applied})
		}
	}
	return out
}
