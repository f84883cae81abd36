#!/usr/bin/env sh
# Perf-regression harness: run the bench_micro perf-gate benchmarks with
# google-benchmark's JSON reporter and record the result (the committed
# snapshot lives at BENCH_micro.json in the repo root).
#
# Usage: scripts/bench_json.sh [--quick] [--build-dir DIR] [--out FILE]
#
# Default (full) mode runs the perf-gate set — conv forward/backward and the
# VGG16-like Sequential train step on the library and on the naive reference
# kernels (tests/oracle/), the tiled-vs-reference GEMM pair, committee
# inference, the CQC retrain on the histogram engine and on the exact-split
# oracle (tests/oracle/exact_gbdt.hpp), and the artifact-cache cold/warm
# retrain pair (BM_CqcRetrainCachedCold vs BM_CqcRetrainCachedWarm;
# docs/CACHING.md) — then prints every
# optimized-over-reference speedup and FAILS if the BM_Conv2DForward,
# BM_SequentialTrainStep, or BM_CqcRetrainHist/100 speedup drops below the
# 3x regression gate, BM_GemmTiled/512 below its 2x gate, or
# BM_CqcRetrainCachedWarm/10 below its 5x warm-over-cold gate
# (docs/PERFORMANCE.md, docs/GBDT.md, docs/CACHING.md). Whole-system
# throughput (service cycles, classify serving) is perfbench's job
# (perfbench/README.md), not this harness's.
#
# Full mode refuses to run against a non-Release bench_micro: the binary
# publishes its own compile mode in the crowdlearn_build_type JSON context
# key (the system libbenchmark's library_build_type reports the LIBRARY's
# compile mode, which says nothing about ours), and gating or snapshotting
# Debug timings would poison the committed baseline.
#
# --quick is the CI smoke mode: the cheap conv benchmarks and the 1x CQC
# retrain pair (histogram engine and exact oracle, once each), a short
# min_time, no speedup gate (shared runners make timing ratios
# meaningless), any build type allowed, and a separate default output file
# so the committed snapshot is not clobbered by throwaway numbers.
#
# POSIX sh + awk only — no bash-isms, no external deps.

set -u

BUILD_DIR=build
OUT=""
QUICK=0
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --build-dir)
      [ $# -ge 2 ] || { echo "bench_json.sh: --build-dir needs a value" >&2; exit 2; }
      shift; BUILD_DIR=$1 ;;
    --out)
      [ $# -ge 2 ] || { echo "bench_json.sh: --out needs a value" >&2; exit 2; }
      shift; OUT=$1 ;;
    -h|--help)
      sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "bench_json.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

BIN="$BUILD_DIR/bench/bench_micro"
if [ ! -x "$BIN" ]; then
  echo "bench_json.sh: $BIN not found or not executable — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR --target bench_micro" >&2
  exit 1
fi

# --- build-type gate --------------------------------------------------------
# Probe the binary's own compile mode (cheap: the nanosecond-scale obs guard
# benchmark at a tiny min_time, just to get the context block printed). Full
# mode only accepts Release-family builds; --quick runs anywhere but says so.
# (the console reporter prints the context block on stderr)
PROBE=$("$BIN" '--benchmark_filter=^BM_ObsDisabledGuard$' \
               --benchmark_min_time=0.001 2>&1)
BUILD_TYPE=$(printf '%s\n' "$PROBE" |
  awk -F': ' '/^crowdlearn_build_type:/ { print $2; exit }')
SANITIZE=$(printf '%s\n' "$PROBE" |
  awk -F': ' '/^crowdlearn_sanitize:/ { print $2; exit }')
[ -n "$BUILD_TYPE" ] || BUILD_TYPE=unknown
[ -n "$SANITIZE" ] || SANITIZE=unknown
BUILD_OK=0
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel) [ "$SANITIZE" = none ] && BUILD_OK=1 ;;
esac
if [ "$BUILD_OK" -ne 1 ]; then
  if [ "$QUICK" -eq 1 ]; then
    echo "bench_json.sh: note: bench_micro is '$BUILD_TYPE' (sanitize: $SANITIZE) — quick numbers only, not comparable" >&2
  else
    echo "bench_json.sh: refusing full mode: bench_micro was built as '$BUILD_TYPE' (sanitize: $SANITIZE)" >&2
    echo "  Gated speedups and the committed BENCH_micro.json snapshot must come from an" >&2
    echo "  unsanitized Release-family build. Rebuild with:" >&2
    echo "    cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR --target bench_micro" >&2
    echo "  or use --quick for ungated smoke numbers." >&2
    exit 1
  fi
fi

if [ "$QUICK" -eq 1 ]; then
  [ -n "$OUT" ] || OUT=BENCH_micro.quick.json
  FILTER='BM_Conv2DForward|BM_Conv2DForwardNaive|BM_CqcRetrain(Hist|Exact)/1$'
  MIN_TIME=--benchmark_min_time=0.02
else
  [ -n "$OUT" ] || OUT=BENCH_micro.json
  FILTER='BM_Conv2D|BM_Gemm|BM_SequentialTrainStep|BM_CommitteeInference|BM_CqcRetrain'
  MIN_TIME=--benchmark_min_time=0.10
fi

echo "bench_json.sh: running $BIN (filter: $FILTER) -> $OUT"
"$BIN" "--benchmark_filter=$FILTER" "$MIN_TIME" \
       "--benchmark_out=$OUT" --benchmark_out_format=json \
  || { echo "bench_json.sh: benchmark run failed" >&2; exit 1; }

[ -s "$OUT" ] || { echo "bench_json.sh: $OUT was not written" >&2; exit 1; }

# --- speedup report (and, in full mode, the regression gates) ---------------
# Four reference pairings: every BM_<X>Naive/<args> with a BM_<X>/<args>
# sibling (naive reference kernels over im2col), every BM_CqcRetrainExact/<args> with
# its BM_CqcRetrainHist/<args> sibling (exact-split oracle over the
# histogram engine), every BM_GemmReference/<args> with its
# BM_GemmTiled/<args> sibling (row-major reference over the cache-blocked
# kernel), and every BM_CqcRetrainCachedCold/<args> with its
# BM_CqcRetrainCachedWarm/<args> sibling (recompute-and-store over
# served-from-cache). Speedup = cpu_time(reference) / cpu_time(optimized);
# the conv / train-step / CQC gate benchmarks must stay >= 3x,
# BM_GemmTiled/512 >= 2x, and BM_CqcRetrainCachedWarm/10 >= 5x.
awk -v quick="$QUICK" '
  /"name":/ {
    line = $0
    sub(/^[^:]*: *"/, "", line); sub(/".*$/, "", line)
    name = line
  }
  /"cpu_time":/ {
    line = $0
    sub(/^[^:]*: */, "", line); sub(/,.*$/, "", line)
    if (name != "" && !(name in t)) t[name] = line + 0
  }
  END {
    status = 0
    for (n in t) {
      if (n ~ /Naive/) {
        base = n; sub(/Naive/, "", base); ref = "naive"
      } else if (n ~ /^BM_CqcRetrainExact\//) {
        base = n; sub(/Exact/, "Hist", base); ref = "exact"
      } else if (n ~ /^BM_GemmReference\//) {
        base = n; sub(/Reference/, "Tiled", base); ref = "reference"
      } else if (n ~ /^BM_CqcRetrainCachedCold\//) {
        base = n; sub(/Cold/, "Warm", base); ref = "cold"
      } else continue
      if (!(base in t) || t[base] <= 0) continue
      speedup = t[n] / t[base]
      printf "  %-34s %8.2fx over %s\n", base, speedup, ref
      limit = 0
      if (base ~ /^BM_Conv2DForward\// || base ~ /^BM_SequentialTrainStep/ ||
          base ~ /^BM_CqcRetrainHist\/100$/) limit = 3.0
      if (base ~ /^BM_GemmTiled\/512$/) limit = 2.0
      if (base ~ /^BM_CqcRetrainCachedWarm\/10$/) limit = 5.0
      if (quick == 0 && limit > 0 && speedup < limit) {
        printf "bench_json.sh: GATE FAILED: %s is only %.2fx over %s (< %.0fx)\n", \
               base, speedup, ref, limit > "/dev/stderr"
        status = 1
      }
    }
    exit status
  }
' "$OUT"
gate=$?

if [ "$gate" -ne 0 ]; then
  echo "bench_json.sh: perf regression gate FAILED" >&2
  exit 1
fi
echo "bench_json.sh: OK ($OUT)"
exit 0
