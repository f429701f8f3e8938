package protest

import (
	"errors"
	"testing"
)

// Normalize must apply exactly the documented zero-value defaults and
// leave explicitly set fields alone — it is the canonical form request
// deduplication keys on, so the defaults here are a compatibility
// contract, not an implementation detail.
func TestPipelineSpecNormalize(t *testing.T) {
	norm, err := PipelineSpec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Fraction != 1 {
		t.Errorf("default fraction = %v, want 1", norm.Fraction)
	}
	if norm.Confidence != 0.95 {
		t.Errorf("default confidence = %v, want 0.95", norm.Confidence)
	}
	if norm.QuantizeGrid != 16 {
		t.Errorf("default quantize grid = %v, want 16", norm.QuantizeGrid)
	}
	if norm.MaxSimPatterns != 4096 {
		t.Errorf("default max sim patterns = %v, want 4096", norm.MaxSimPatterns)
	}

	// Explicit values survive normalization unchanged, and a normal
	// form normalizes to itself.  (PipelineSpec holds a func field, so
	// compare the value fields explicitly.)
	set := PipelineSpec{Fraction: 0.5, Confidence: 0.9, QuantizeGrid: 8, MaxSimPatterns: 64, SimPatterns: 32}
	same := func(a, b PipelineSpec) bool {
		return a.Fraction == b.Fraction && a.Confidence == b.Confidence &&
			a.QuantizeGrid == b.QuantizeGrid && a.MaxSimPatterns == b.MaxSimPatterns &&
			a.SimPatterns == b.SimPatterns && a.Optimize == b.Optimize
	}
	norm, err = set.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !same(norm, set) {
		t.Errorf("normalize changed explicit fields: %+v -> %+v", set, norm)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !same(again, norm) {
		t.Errorf("normalize is not idempotent: %+v -> %+v", norm, again)
	}

	// Out-of-range fields are errors, matching Run and Validate.
	for _, bad := range []PipelineSpec{
		{Fraction: 2},
		{Fraction: -0.1},
		{Confidence: 1},
		{Confidence: -0.5},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an out-of-range spec", bad)
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an out-of-range spec", bad)
		}
	}
	if err := (PipelineSpec{}).Validate(); err != nil {
		t.Errorf("Validate rejected the zero spec: %v", err)
	}
}

// A pipeline's BIST fields are checked with the rest of the spec, so a
// bad MISR width is rejected before any phase runs, as ErrBadSpec.
func TestPipelineSpecValidateBIST(t *testing.T) {
	for _, bad := range []BISTPlan{{Cycles: 128, MISRWidth: 9}, {Cycles: -5}, {Cycles: -1, MISRWidth: 16}} {
		if err := (PipelineSpec{BIST: &bad}).Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Validate(BIST %+v) = %v, want ErrBadSpec", bad, err)
		}
	}
	for _, ok := range []BISTPlan{{}, {Cycles: 128, MISRWidth: 32}, {MISRWidth: 4}} {
		if err := (PipelineSpec{BIST: &ok}).Validate(); err != nil {
			t.Errorf("Validate(BIST %+v) rejected a valid plan: %v", ok, err)
		}
	}
}
