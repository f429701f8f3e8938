package main

import (
	"context"
	"errors"
	"testing"
)

// TestErrorLineOnePrefix: a failed subcommand's error is printed with
// exactly one "protest:" prefix, whether the library's error carries
// one already or not.
func TestErrorLineOnePrefix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"fsim probabilities", runFsim(ctx, []string{"-circuit", "c17", "-p", "0.5,0.5,0.5,0.5,1.5"}),
			"protest: bad input probabilities: pattern: input 4 probability 1.5 out of [0,1]"},
		{"pipeline bist", runPipeline(ctx, []string{"-circuit", "c17", "-q", "-bist", "-1"}),
			"protest: pipeline: bad spec: -1 BIST cycles, want at least 0 (0 = 1024)"},
		{"unprefixed", errors.New("unknown built-in circuit"), "protest: unknown built-in circuit"},
	} {
		if tc.err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}
