// Command protest is the command-line front end of the PROTEST
// probabilistic testability analysis library.
//
// Usage:
//
//	protest <subcommand> [flags]
//
// Subcommands:
//
//	info      print circuit statistics
//	analyze   estimate signal and fault detection probabilities
//	testlen   compute necessary random test lengths
//	optimize  optimize per-input signal probabilities
//	pipeline  run the full analyze/size/optimize/validate pipeline
//	gen       generate random pattern sets
//	fsim      fault-simulate a pattern set and report coverage
//	validate  cross-check the analytic, BDD-exact and Monte-Carlo oracles
//	serve     long-running HTTP/JSON analysis service
//
// Circuits are read from .bench netlists (-f) or taken from the
// built-in benchmark suite (-circuit alu|mult|div|comp|c17|sn7485|
// c432|c499|c880|c1355|s27|...; every subcommand's -circuit help and
// the validate/pipeline -circuits sweeps list the full registry).
// Every long-running subcommand honors Ctrl-C and SIGTERM: the first
// signal cancels the in-flight work cleanly (serve drains its
// in-flight requests first).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"protest"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = runInfo(ctx, args)
	case "analyze":
		err = runAnalyze(ctx, args)
	case "testlen":
		err = runTestLen(ctx, args)
	case "optimize":
		err = runOptimize(ctx, args)
	case "pipeline":
		err = runPipeline(ctx, args)
	case "gen":
		err = runGen(ctx, args)
	case "fsim":
		err = runFsim(ctx, args)
	case "atpg":
		err = runATPG(ctx, args)
	case "bist":
		err = runBist(ctx, args)
	case "exact":
		err = runExact(ctx, args)
	case "validate":
		err = runValidate(ctx, args)
	case "serve":
		err = runServe(ctx, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "protest: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, protest.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "protest: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failed subcommand's error with one "protest:"
// prefix: the library's errors carry it already, the others get it.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "protest:") {
		msg = "protest: " + msg
	}
	return msg
}

func usage() {
	fmt.Fprint(os.Stderr, `PROTEST - probabilistic testability analysis

usage: protest <subcommand> [flags]

subcommands:
  info      print circuit statistics
  analyze   estimate signal and fault detection probabilities
  testlen   compute necessary random test lengths (formula 3)
  optimize  optimize per-input signal probabilities (hill climbing)
  pipeline  one-call pipeline: analyze, size, optimize, validate (-json);
            -circuits a,b,c fans out concurrent Sessions, one per circuit
  gen       generate (weighted) random pattern sets
  fsim      fault-simulate patterns and report coverage
  atpg      deterministic test generation (PODEM)
  bist      simulate a self-test session with MISR signature compaction
  exact     exact signal probabilities via BDDs, vs the estimator
  validate  statistical self-validation: analytic vs BDD-exact vs
            ProbTest-sized Monte-Carlo on one circuit or -circuits all;
            exits 1 if any cross-check flags
  serve     HTTP/JSON analysis service (POST /v1/pipeline, /v1/analyze;
            async /v1/jobs with resumable SSE; request coalescing;
            admission control, graceful drain)

run 'protest <subcommand> -h' for flags.
`)
}
