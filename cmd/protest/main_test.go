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
		{"fsim width", runFsim(ctx, []string{"-circuit", "c17", "-width", "3"}),
			"protest: Open: widesim: unsupported width 3 (want 0, 1 or 8)"},
		{"fsim width 4", runFsim(ctx, []string{"-circuit", "c17", "-width", "4"}),
			"protest: Open: widesim: unsupported width 4 (want 0, 1 or 8)"},
		{"pipeline width", runPipeline(ctx, []string{"-circuit", "c17", "-q", "-width", "3"}),
			"protest: pipeline: bad spec: widesim: unsupported width 3 (want 0, 1 or 8)"},
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
