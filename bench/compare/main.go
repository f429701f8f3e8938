// Command compare reads benchmark result files (bench/out/results/*.json,
// or a -results directory of the benchmark) of a parent commit and of a
// change and prints, per workload and end-to-end metric, each side's
// median and quartiles, the fraction of run pairs the change wins, and
// a verdict against the bounds in BENCHMARK.json.  Run it from bench/:
//
//	go run ./compare -parent 'out/parent/*.json' -change 'out/change/*.json'
//
// With -baseline instead of -parent/-change it prints the median and
// quartiles of the given files' runs as JSON, the form of
// bench/baseline.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultFile mirrors the file the benchmark writes.
type resultFile struct {
	Header json.RawMessage `json:"header"`
	Runs   []runEntry      `json:"runs"`
}

type runEntry struct {
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Started  time.Time `json:"started"`
	Failed   int       `json:"failed"`
	Correct  bool      `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json with the metrics and bounds")
	parent := flag.String("parent", "", "comma-separated result files or globs of the parent commit")
	change := flag.String("change", "", "comma-separated result files or globs of the change")
	baseline := flag.String("baseline", "", "comma-separated result files or globs to summarize as a baseline")
	flag.Parse()
	if err := run(os.Stdout, *specPath, *parent, *change, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, specPath, parent, change, baseline string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if baseline != "" {
		headers, runs, err := load(baseline)
		if err != nil {
			return err
		}
		return summarize(w, sp, headers, runs)
	}
	if parent == "" || change == "" {
		return fmt.Errorf("need -parent and -change, or -baseline")
	}
	_, pruns, err := load(parent)
	if err != nil {
		return err
	}
	_, cruns, err := load(change)
	if err != nil {
		return err
	}
	compare(w, sp, pruns, cruns)
	return nil
}

// load reads every untraced run of the files the list names, in start
// order, and the files' headers.
func load(list string) ([]json.RawMessage, []runEntry, error) {
	var headers []json.RawMessage
	var runs []runEntry
	for _, pat := range strings.Split(list, ",") {
		paths, err := filepath.Glob(strings.TrimSpace(pat))
		if err != nil {
			return nil, nil, err
		}
		if len(paths) == 0 {
			return nil, nil, fmt.Errorf("no result file matches %q", pat)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, nil, err
			}
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", p, err)
			}
			headers = append(headers, rf.Header)
			for _, r := range rf.Runs {
				if !r.Trace {
					runs = append(runs, r)
				}
			}
		}
	}
	slices.SortFunc(runs, func(a, b runEntry) int { return a.Started.Compare(b.Started) })
	return headers, runs, nil
}

// values returns the metric's values over the workload's runs, in
// start order.
func values(runs []runEntry, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// verdict classifies one (workload, metric) row by the rule the
// benchmark's README gives: a gain needs at least 10 pairs, 9 in 10
// won, and medians further apart than the parent's quartile distance;
// a spread wider than the bound is unresolved unless every change run
// beats every parent run; otherwise the change's median may be worse
// than the parent's by at most the bound.
func verdict(parent, change []float64, lowerBetter bool, bound float64) (string, float64) {
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := range pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	winFrac := float64(wins) / float64(max(pairs, 1))
	pq1, pm, pq3 := quartiles(parent)
	cq1, cm, cq3 := quartiles(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (cm - pm) / pm
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max((pq3-pq1)/pm, (cq3-cq1)/cm)
	switch {
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		return "improved", winFrac
	case spread > bound && !allBetter:
		return "unresolved", winFrac
	case worse > bound:
		return "regressed", winFrac
	}
	return "no worse", winFrac
}

func compare(w io.Writer, sp spec, parent, change []runEntry) {
	fmt.Fprintf(w, "%-18s %-18s %-34s %-34s %6s  %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, wl := range sp.Workloads {
		pf, cf := failures(parent, wl.Name), failures(change, wl.Name)
		for _, m := range sp.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-18s %-18s no runs (parent %d, change %d)\n", wl.Name, m.Name, len(p), len(c))
				continue
			}
			v, wins := verdict(p, c, m.Better == "lower", m.Bound)
			if v == "improved" && cf > pf {
				v = "no worse (a gain does not count with more failed requests)"
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-18s %-18s %-34s %-34s %5.0f%%  %s (bound %.0f%%, %d/%d runs)\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g %s", pq1, pm, pq3, m.Unit), fmt.Sprintf("%.4g/%.4g/%.4g %s", cq1, cm, cq3, m.Unit),
				100*wins, v, 100*m.Bound, len(p), len(c))
		}
		fmt.Fprintf(w, "%-18s %-18s parent %d, change %d\n", wl.Name, "failed requests", pf, cf)
	}
}

func failures(runs []runEntry, workload string) int {
	n := 0
	for _, r := range runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// summarize prints the baseline: per workload and end-to-end metric,
// the median and quartiles over the runs, with the files' headers.
func summarize(w io.Writer, sp spec, headers []json.RawMessage, runs []runEntry) error {
	type stat struct {
		Q1     float64 `json:"q1"`
		Median float64 `json:"median"`
		Q3     float64 `json:"q3"`
		Runs   int     `json:"runs"`
		Unit   string  `json:"unit"`
	}
	out := struct {
		Headers   []json.RawMessage          `json:"headers"`
		Claim     any                        `json:"claim"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}{Headers: headers, Workloads: map[string]map[string]stat{}}
	for _, wl := range sp.Workloads {
		out.Workloads[wl.Name] = map[string]stat{}
		for _, m := range sp.EndToEnd {
			v := values(runs, wl.Name, m.Name)
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			out.Workloads[wl.Name][m.Name] = stat{Q1: q1, Median: med, Q3: q3, Runs: len(v), Unit: m.Unit}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
