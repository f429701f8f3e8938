package faultsim

import (
	"slices"
	"sort"

	"protest/internal/widesim"
)

// This file holds the block schedules of the two measurements.  A
// measurement body (DetectionCounts, FirstDetections) runs over any
// stretch of its schedule, so a distributed coordinator and its
// workers agree, without any communication, on which 64-pattern
// blocks a run consists of, which patterns of each block count, and
// how many patterns have been applied once a block has run.

// BlockSpan describes one 64-pattern block of a measurement run: the
// valid-pattern mask (bit b set = pattern b of the block counts) and
// the cumulative number of patterns applied once the block has run.
type BlockSpan struct {
	Mask uint64
	End  int
}

// Schedule is a stretch of a measurement run's block schedule.  A run
// applies its patterns in 64-pattern blocks that restart at every
// segment end, so the last block of a segment keeps only the patterns
// up to that end.  Blocks are computed on demand: a schedule costs a
// few words per segment, whatever the number of its blocks.
type Schedule struct {
	ends   []int // ascending segment ends
	starts []int // starts[i] numbers segment i's first block; starts[len(ends)] counts the run's blocks
	lo, hi int   // the stretch: blocks [lo, hi) of the run
}

func newSchedule(ends []int) Schedule {
	starts := make([]int, len(ends)+1)
	prev := 0
	for i, e := range ends {
		starts[i+1] = starts[i] + (e-prev+63)/64
		prev = e
	}
	return Schedule{ends: ends, starts: starts, hi: starts[len(ends)]}
}

// DetectBlocks returns the block schedule of a detection-probability
// run over numPatterns patterns: ceil(numPatterns/64) blocks, every
// mask full except the last, which keeps only the remainder.
// MeasureDetection runs the whole schedule.
func DetectBlocks(numPatterns int) Schedule {
	if numPatterns <= 0 {
		return newSchedule(nil)
	}
	return newSchedule([]int{numPatterns})
}

// CurveBlocks returns the block schedule of a coverage-curve run:
// blocks restart at every checkpoint (a segment whose remainder is
// under 64 patterns ends with a short, masked block), so every
// positive checkpoint is the End of a block.  Checkpoints are sorted
// internally.  CoverageCurve runs the whole schedule.
func CurveBlocks(checkpoints []int) Schedule {
	var ends []int
	for _, cp := range slices.Sorted(slices.Values(checkpoints)) {
		if cp > 0 && (len(ends) == 0 || cp > ends[len(ends)-1]) {
			ends = append(ends, cp)
		}
	}
	return newSchedule(ends)
}

// Len returns the number of blocks in the stretch.
func (s Schedule) Len() int { return s.hi - s.lo }

// Range returns blocks [lo, hi) of the stretch, 0 <= lo <= hi <= Len().
func (s Schedule) Range(lo, hi int) Schedule {
	s.lo, s.hi = s.lo+lo, s.lo+hi
	return s
}

// Block returns block j of the stretch, 0 <= j < Len().
func (s Schedule) Block(j int) BlockSpan {
	j += s.lo
	i := sort.Search(len(s.ends), func(i int) bool { return s.starts[i+1] > j })
	applied := 64 * (j - s.starts[i])
	if i > 0 {
		applied += s.ends[i-1]
	}
	return BlockSpan{Mask: blockMask(s.ends[i] - applied), End: min(applied+64, s.ends[i])}
}

// ChunkBlocks is the number of blocks one engine chunk carries, the
// lanes of widesim's vectors.  A block range that starts at a multiple
// of it, and ends at one or at the run's end, simulates the same chunks
// as that stretch of the whole run.
const ChunkBlocks = widesim.Lanes
