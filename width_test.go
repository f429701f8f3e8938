package protest

import (
	"context"
	"reflect"
	"testing"
)

// TestSimWidthIdenticalResults pins the public measurement contract:
// every Session-level measurement — detection counts, coverage curves,
// BIST signatures — of the default FFR engine is bit-identical to the
// naive oracle's, on pattern budgets that end mid-block, fill whole
// 8-block chunks, or end in a padded chunk.
func TestSimWidthIdenticalResults(t *testing.T) {
	counts := []int{1, 63, 65, 512, 581, 1088}
	cps := []int{10, 100, 300, 1088}
	for _, name := range BenchmarkNames() {
		c, _ := Benchmark(name)
		ref, err := Open(c, WithSeed(11), WithSimEngine(SimEngineNaive))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(c, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, n := range counts {
			want, err := ref.Simulate(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := s.Simulate(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Applied != want.Applied {
				t.Fatalf("%s n=%d: applied %d != %d", name, n, sim.Applied, want.Applied)
			}
			for i := range want.Detected {
				if sim.Detected[i] != want.Detected[i] {
					t.Fatalf("%s n=%d fault %d: %d != %d", name, n, i, sim.Detected[i], want.Detected[i])
				}
			}
		}
		wantCurve, err := ref.CoverageCurve(ctx, nil, cps)
		if err != nil {
			t.Fatal(err)
		}
		curve, err := s.CoverageCurve(ctx, nil, cps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantCurve {
			if curve[i] != wantCurve[i] {
				t.Fatalf("%s: curve point %d = %+v, want %+v", name, i, curve[i], wantCurve[i])
			}
		}
		wantBIST, err := ref.RunBIST(ctx, BISTPlan{Cycles: 300})
		if err != nil {
			t.Fatal(err)
		}
		bist, err := s.RunBIST(ctx, BISTPlan{Cycles: 300})
		if err != nil {
			t.Fatal(err)
		}
		if *bist != *wantBIST {
			t.Fatalf("%s: BIST %+v != %+v", name, bist, wantBIST)
		}
	}
}

// TestOpenRejectsUnknownEngine checks unknown engines fail at Open.
func TestOpenRejectsUnknownEngine(t *testing.T) {
	c, _ := Benchmark("c17")
	if _, err := Open(c, WithSimEngine(5)); err == nil {
		t.Fatal("engine 5 should be rejected at Open")
	}
	if _, err := Open(c, WithSimEngine(SimEngineNaive)); err != nil {
		t.Fatalf("naive engine rejected: %v", err)
	}
}

// TestValidateSweepAtWidths is the three-oracle acceptance gate of the
// measurement kernel: the full validation harness must pass with zero
// flags, and the deprecated ValidateSpec.SimWidth must change nothing:
// at 0, 1 and 8 the reports are identical.
func TestValidateSweepAtWidths(t *testing.T) {
	for _, name := range []string{"c17", "alu", "sn7485"} {
		c, _ := Benchmark(name)
		s, err := Open(c, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		var want *ValidateReport
		for _, w := range []int{0, 1, 8} {
			rep, err := s.Validate(context.Background(), ValidateSpec{SimWidth: w})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Flags) != 0 {
				t.Fatalf("%s width %d: %d validation flags, want 0: %+v", name, w, len(rep.Flags), rep.Flags)
			}
			if want == nil {
				want = rep
			} else if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s: the report at width %d differs from width 0's", name, w)
			}
		}
	}
}
