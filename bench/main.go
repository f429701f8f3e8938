// Command bench is the end-to-end benchmark of `protest serve`.
//
// It starts real `protest serve` processes on loopback, drives one or
// all workloads from two closed-loop clients, checks every response,
// and prints every end-to-end metric by name and unit, ending with one
// JSON line.  With -trace 1 it also replays the same requests
// in-process with a span around each call into a layer and prints the
// per-layer metrics instead.  bench/run.sh builds the binaries and runs
// it from the repository root:
//
//	bash bench/run.sh -workload pipeline-sim -seed 1 -seconds 45 -trace 0
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	os.Exit(code)
}

// run executes the command line args and returns the exit code: 0 when
// every response checked out, 1 when a check failed, 2 when the
// benchmark itself could not run.  A nil start serves from the -protest
// binary; tests pass an in-process fixture.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, start startFunc) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated request sequences")
	seconds := fs.Float64("seconds", 45, "size each workload's fixed work to last about this long on the 2-core reference box")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	bin := fs.String("protest", ".bench_build/protest", "protest binary to serve from")
	outDir := fs.String("out", "bench/out", "directory for trace files")
	resultsDir := fs.String("results", "bench/out/results", "directory for result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if start == nil {
		if _, err := os.Stat(*bin); err != nil {
			fmt.Fprintf(stderr, "bench: %v (bench/run.sh builds it)\n", err)
			return 2
		}
		start = processFixture(*bin)
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		setups:  setupRuns,
		start:   start,
		outDir:  *outDir,
		log:     stderr,
	}
	env := environment(*seed)

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		started := time.Now()
		rep, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		printReport(stdout, rep, cfg)
		metrics := rep.E2E
		if cfg.trace {
			metrics = rep.Layers
		}
		path, err := appendResult(*resultsDir, env, runRecord{
			Workload:    w.name,
			Trace:       cfg.trace,
			Started:     started,
			Seconds:     cfg.seconds,
			Fixture:     rep.Cmdlines,
			Attempted:   rep.Attempted,
			Failed:      rep.Failed,
			Correct:     rep.correct(),
			Drained:     rep.Drained,
			Metrics:     metrics,
			Percentiles: rep.Percentiles,
		})
		if err != nil {
			fmt.Fprintln(stderr, "bench: result file:", err)
			return 2
		}
		fmt.Fprintf(stdout, "result: %s\n\n", path)
		final.Correct = final.Correct && rep.correct()
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, m := range metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep *report, cfg config) {
	fmt.Fprintf(w, "workload %s  seed %d  %d requests from %d clients (drained after %.3fs and %.3fs)\n",
		rep.Workload, cfg.seed, rep.Attempted, clients, rep.Drained[0], rep.Drained[1])
	for _, c := range rep.Cmdlines {
		fmt.Fprintf(w, "  fixture: %s\n", c)
	}
	for _, name := range e2eOrder {
		printMetric(w, name, rep.E2E[name])
	}
	for _, p := range percentileOrder {
		if m, ok := rep.Percentiles[p.name]; ok {
			printMetric(w, p.name, m)
		}
	}
	fmt.Fprintf(w, "  %-32s %.6g (%d/%d)\n", "error_rate", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	for _, l := range layerOrder {
		if m, ok := rep.Layers[l.name]; ok {
			printMetric(w, l.name, m)
		}
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "  %s\n", c)
	}
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "  %-32s %.6g %s", name, m.Value, m.Unit)
	if m.Samples > 0 {
		fmt.Fprintf(w, " (n=%d)", m.Samples)
	}
	fmt.Fprintln(w)
}
