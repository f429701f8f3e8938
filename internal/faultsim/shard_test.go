package faultsim

import (
	"slices"
	"testing"
)

// appliedBlocks lists the blocks the serial oracle loops apply for
// sorted checkpoints: 64-pattern blocks from the previous checkpoint,
// the last one masked to the remainder.
func appliedBlocks(checkpoints []int) []BlockSpan {
	var out []BlockSpan
	applied := 0
	for _, cp := range slices.Sorted(slices.Values(checkpoints)) {
		for applied < cp {
			valid := cp - applied
			applied += min(64, valid)
			out = append(out, BlockSpan{Mask: blockMask(valid), End: applied})
		}
	}
	return out
}

// TestScheduleBlocks pins the on-demand schedules to the blocks the
// serial loops apply, over every stretch, and checks that a schedule
// of 2^34 blocks is built and read without materializing them.
func TestScheduleBlocks(t *testing.T) {
	type sched struct {
		name string
		s    Schedule
		want []BlockSpan
	}
	var cases []sched
	for _, n := range []int{-3, 0, 1, 63, 64, 65, 640, 1000} {
		cases = append(cases, sched{"detect", DetectBlocks(n), appliedBlocks([]int{n})})
	}
	for _, cps := range [][]int{nil, {0, -1}, {1}, {64, 64}, {130, 10, 100, 100, 63, 64, 0, -5}} {
		cases = append(cases, sched{"curve", CurveBlocks(cps), appliedBlocks(cps)})
	}
	for _, tc := range cases {
		n := len(tc.want)
		if tc.s.Len() != n {
			t.Fatalf("%s %v: %d blocks, want %d", tc.name, tc.want, tc.s.Len(), n)
		}
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				r := tc.s.Range(lo, hi)
				if r.Len() != hi-lo {
					t.Fatalf("%s: range [%d,%d) has %d blocks", tc.name, lo, hi, r.Len())
				}
				for j := range r.Len() {
					if got := r.Block(j); got != tc.want[lo+j] {
						t.Fatalf("%s: block %d of [%d,%d) = %+v, want %+v", tc.name, j, lo, hi, got, tc.want[lo+j])
					}
				}
			}
		}
		if n > 2 && tc.s.Range(1, n).Range(1, 2).Block(0) != tc.want[2] {
			t.Fatalf("%s: a range of a range is off", tc.name)
		}
	}

	huge := CurveBlocks([]int{10, 1 << 40})
	if want := 1 + (1<<40-10+63)/64; huge.Len() != want {
		t.Fatalf("huge schedule: %d blocks, want %d", huge.Len(), want)
	}
	if b := huge.Block(huge.Len() - 1); b.End != 1<<40 || b.Mask != blockMask((1<<40-10)%64) {
		t.Fatalf("huge schedule: last block %+v", b)
	}
}

// TestChunkBlocks pins the chunk of each width, the unit shard cuts
// align to: an explicit width is used as is, and width 0 runs 8-block
// chunks, the last one padded.
func TestChunkBlocks(t *testing.T) {
	for width, want := range map[int]int{0: 8, 1: 1, 8: 8} {
		if got := ChunkBlocks(width); got != want {
			t.Errorf("ChunkBlocks(%d) = %d, want %d", width, got, want)
		}
	}
}
