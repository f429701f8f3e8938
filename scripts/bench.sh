#!/usr/bin/env bash
# Benchmark trajectory tooling: runs the benchmark suite and records,
# per benchmark, the best ns/op and allocs/op over the repetitions in
# BENCH_<date>.json at the repository root.  Check the file in to keep
# a performance trail next to the code it measures.
#
# The suite spans every layer, including the server-level
# BenchmarkServerAnalyzeCoalesce (internal/server): N identical
# concurrent /v1/analyze requests, which join one another's in-flight
# passes, and whose passes/req metric records the dedup win in the
# trail.  Run that one alone with:
#   scripts/bench.sh 'BenchmarkServerAnalyzeCoalesce' 1
#
# The wide-kernel family (BenchmarkBlockEngines/*/wide-w8 in
# internal/faultsim and BenchmarkFaultSimFFRMULT512PatternsWide/w8 at
# the root) times one full 8-block chunk, 512 patterns per op; the
# plain ffr rows time a chunk with one valid block, as a 64-pattern
# measurement runs it:
#   scripts/bench.sh 'BenchmarkBlockEngines|FFRMULT512PatternsWide' 1
#
# Usage: scripts/bench.sh [bench-regex] [count] [benchtime] [cpus]
#   scripts/bench.sh                       # full suite, -count 3
#   scripts/bench.sh 'Analyze' 1           # quick subset, single run
#   scripts/bench.sh 'Optimize' 3 10x      # fixed iteration count
#   scripts/bench.sh 'Throughput' 1 '' 1,2,4   # GOMAXPROCS sweep
#
# Set BENCH_GATE to a benchmark-name regexp to turn the closing delta
# into a gate: the run exits non-zero if any matching benchmark
# regressed more than BENCH_MAX_REGRESS percent (default 10) against
# the previous trail entry.  CI gates the block-kernel benchmarks this
# way; see .github/workflows/ci.yml.
#
# With a cpu list the trail keeps go's -N GOMAXPROCS suffix in the
# benchmark names (BenchmarkFoo-2, BenchmarkFoo-4, ...), so one file
# records the whole scaling curve; without one the suffix is stripped,
# keeping names comparable across machines.  Go appends the same -N to
# every benchmark of a package run, or none at GOMAXPROCS 1, and a
# package's TestMain may change GOMAXPROCS, so the suffix is found per
# package: a trailing -N is stripped only when every benchmark of the
# package ends in the same one.  Sub-benchmark names that end in -N
# themselves (BenchmarkShardedDetect/workers-2) keep it.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=${1:-.}
count=${2:-3}
benchtime=${3:-}
cpus=${4:-}

args=(test -run '^$' -bench "$pattern" -benchmem -count "$count")
if [ -n "$benchtime" ]; then
  args+=(-benchtime "$benchtime")
fi
if [ -n "$cpus" ]; then
  args+=(-cpu "$cpus")
fi
args+=(./...)

# Never clobber an existing trail entry (e.g. a baseline recorded
# earlier the same day): append a run counter instead.
out="BENCH_$(date +%Y-%m-%d).json"
n=2
while [ -e "$out" ]; do
  out="BENCH_$(date +%Y-%m-%d).$n.json"
  n=$((n + 1))
done
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go "${args[@]}" | tee "$tmp"

awk -v keepcpu="${cpus:+1}" '
# flush records the benchmarks of one package run, stripping the
# GOMAXPROCS suffix when every name carries the same one.
function flush(   i, suf, common, name, ns, al) {
    common = ""
    for (i = 1; i <= nb && keepcpu == ""; i++) {
        if (!match(bname[i], /-[0-9]+$/)) { common = ""; break }
        suf = substr(bname[i], RSTART)
        if (i == 1) common = suf
        else if (suf != common) { common = ""; break }
    }
    for (i = 1; i <= nb; i++) {
        name = substr(bname[i], 1, length(bname[i]) - length(common))
        ns = bns[i]; al = bal[i]
        if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) best_ns[name] = ns
        if (al != "" && (!(name in best_al) || al + 0 < best_al[name] + 0)) best_al[name] = al
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    nb = 0
}
/^pkg:/ { flush() }
/^Benchmark/ {
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") ns = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    nb++; bname[nb] = $1; bns[nb] = ns; bal[nb] = allocs
}
END {
    flush()
    printf "{\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_per_op\": %s", name, best_ns[name]
        if (name in best_al) printf ", \"allocs_per_op\": %s", best_al[name]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "}\n"
}' "$tmp" > "$out"
echo "wrote $out"

# Against the most recent other trail entry, print a delta table (also
# used by CI for the job summary).  Version sort orders same-day run
# counters correctly (BENCH_D.json < BENCH_D.2.json < later dates);
# mtime would be ambiguous after a fresh checkout.
base=$(ls BENCH_*.json 2>/dev/null | grep -v "^$out\$" | sort -V | tail -n 1 || true)
if [ -n "$base" ]; then
  if [ -n "${BENCH_GATE:-}" ]; then
    # Gating mode: a >BENCH_MAX_REGRESS% slowdown on any benchmark
    # matching BENCH_GATE fails this script (and the CI job running it).
    go run ./scripts/benchdelta -gate "$BENCH_GATE" \
        -max-regress "${BENCH_MAX_REGRESS:-10}" "$base" "$out"
  else
    go run ./scripts/benchdelta "$base" "$out" || true
  fi
fi
