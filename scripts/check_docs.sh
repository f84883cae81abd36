#!/usr/bin/env sh
# Doc/code drift lint, run as a tier-1 ctest (see add_test in the root
# CMakeLists.txt; WORKING_DIRECTORY is the repo root).
#
# Fourteen checks, numbered in the sections below:
#   1. every `src/`, `tests/`, `bench/` and `examples/` source path referenced
#      in the markdown docs exists on disk;
#   2. every `crowdlearn_*` metric name documented in docs/OBSERVABILITY.md
#      appears somewhere in src/, and every registered metric is documented;
#   3. every `bench_*` binary named in EXPERIMENTS.md or README.md is a real
#      target in bench/CMakeLists.txt, and every target is in EXPERIMENTS.md;
#   4. the ctest labels the docs name are wired in tests/CMakeLists.txt;
#   5. the committed golden files exist;
#   6. the perf harness script and its BENCH_micro.json snapshot agree;
#   7-10. the tenancy, serving, recovery and caching docs stay linked;
#   11-14. removed code stays out of src/: oracle headers and kernel toggles,
#      the text model encoding, the old fork-join entry points, and the
#      exact GBDT split engine with its serialized bin boundaries.
#
# POSIX sh + grep/sed only — no bash-isms, no external deps.

set -u

fail=0
err() {
  echo "check_docs: $1" >&2
  fail=1
}

DOCS="README.md DESIGN.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/OBSERVABILITY.md docs/CHECKPOINTING.md docs/PERFORMANCE.md docs/GBDT.md docs/RECOVERY.md docs/TENANCY.md docs/SERVING.md docs/CACHING.md"

for doc in $DOCS; do
  [ -f "$doc" ] || { err "missing doc: $doc"; }
done

# --- 1. referenced source paths exist ---------------------------------------
# Pull src/<dir>/<name>.hpp (and .cpp) tokens out of the docs. Backtick fences
# are irrelevant to the regex; we just want every path-shaped reference.
for doc in $DOCS; do
  [ -f "$doc" ] || continue
  paths=$(grep -o 'src/[A-Za-z0-9_]*/[A-Za-z0-9_.]*\.[hc]pp' "$doc" | sort -u)
  for p in $paths; do
    [ -f "$p" ] || err "$doc references $p, which does not exist"
  done
  # tests/, bench/, examples/ references too, nested directories included
  # (tests/oracle/...).
  paths=$(grep -o '\(tests\|bench\|examples\)/[A-Za-z0-9_./]*\.[hc]pp' "$doc" | sort -u)
  for p in $paths; do
    [ -f "$p" ] || err "$doc references $p, which does not exist"
  done
done

# --- 2. documented metric names exist in src/ -------------------------------
if [ -f docs/OBSERVABILITY.md ]; then
  # Strip file-name tokens (crowdlearn_system.cpp) first, and require the
  # match to end on an alphanumeric so `crowdlearn_*` prose doesn't count.
  metrics=$(sed 's/crowdlearn_[a-z0-9_]*\.[ch]pp//g' docs/OBSERVABILITY.md \
              | grep -o 'crowdlearn_[a-z0-9_]*[a-z0-9]' | sort -u)
  [ -n "$metrics" ] || err "docs/OBSERVABILITY.md documents no crowdlearn_* metrics"
  for m in $metrics; do
    if ! grep -rqF "\"$m\"" src/; then
      err "metric $m is documented in docs/OBSERVABILITY.md but not found in src/"
    fi
  done
  # And the reverse: every metric registered in src/ must be documented.
  for m in $(grep -rho '"crowdlearn_[a-z0-9_]*"' src/ | tr -d '"' | sort -u); do
    echo "$metrics" | grep -qx "$m" \
      || err "metric $m is registered in src/ but undocumented in docs/OBSERVABILITY.md"
  done
fi

# --- 3. documented bench binaries are real targets --------------------------
# Targets are the bare names listed in CL_BENCH_TARGETS in bench/CMakeLists.txt.
bench_targets=$(sed -n 's/^[[:space:]]*\(bench_[a-z0-9_]*\)[[:space:]]*$/\1/p' \
                  bench/CMakeLists.txt | sort -u)
[ -n "$bench_targets" ] || err "no bench_* targets found in bench/CMakeLists.txt"

for doc in EXPERIMENTS.md README.md; do
  [ -f "$doc" ] || continue
  for b in $(grep -o 'bench_[a-z0-9_]*[a-z0-9]' "$doc" | sort -u); do
    case "$b" in
      bench_output|bench_common|bench_json) continue ;;  # not binaries: log, shared header, script
    esac
    echo "$bench_targets" | grep -qx "$b" \
      || err "$doc names $b, which is not a target in bench/CMakeLists.txt"
  done
done

# And the reverse: every bench target should appear in EXPERIMENTS.md.
for b in $bench_targets; do
  grep -q "$b" EXPERIMENTS.md || err "bench target $b is missing from EXPERIMENTS.md"
done

# --- 4. ctest labels stay in sync with tests/CMakeLists.txt -----------------
# The label sets are wired as `list(APPEND labels <name>)`; every label the
# docs tell readers to pass to `ctest -L` must actually be appended somewhere.
for label in concurrency faults ckpt golden perf gbdt recovery tenancy serving cache; do
  grep -q "list(APPEND labels $label)" tests/CMakeLists.txt \
    || err "ctest label '$label' is not wired in tests/CMakeLists.txt"
done
# And the reverse: every wired label should be documented somewhere.
for label in $(sed -n 's/^[[:space:]]*list(APPEND labels \([a-z0-9_]*\)).*/\1/p' \
                 tests/CMakeLists.txt | sort -u); do
  found=0
  for doc in $DOCS; do
    [ -f "$doc" ] && grep -q -- "-L $label" "$doc" && found=1
  done
  [ "$found" -eq 1 ] || err "ctest label '$label' is wired but no doc shows 'ctest ... -L $label'"
done

# --- 5. golden files exist and match what test_golden_trace compares --------
for g in tests/golden/golden_trace.csv tests/golden/golden_metrics.json; do
  [ -f "$g" ] || err "missing committed golden file: $g (run scripts/make_golden.sh)"
done

# --- 6. perf harness artifacts stay in sync ---------------------------------
# docs/PERFORMANCE.md documents scripts/bench_json.sh and the committed
# BENCH_micro.json snapshot; both must exist, the script must be executable,
# and the snapshot must actually contain the gated benchmarks.
[ -f scripts/bench_json.sh ] || err "missing scripts/bench_json.sh (docs/PERFORMANCE.md documents it)"
[ -x scripts/bench_json.sh ] || err "scripts/bench_json.sh is not executable"
if [ -f BENCH_micro.json ]; then
  for b in BM_Conv2DForward BM_SequentialTrainStep BM_CqcRetrainHist BM_CqcRetrainExact BM_GemmTiled BM_GemmReference BM_CqcRetrainCachedCold BM_CqcRetrainCachedWarm; do
    grep -q "\"name\": \"$b" BENCH_micro.json \
      || err "BENCH_micro.json does not record $b (rerun scripts/bench_json.sh)"
  done
else
  err "missing committed BENCH_micro.json (run scripts/bench_json.sh)"
fi

# --- 7. multi-tenant service docs stay wired ---------------------------------
# docs/TENANCY.md documents the src/service layer; the README must link it so
# readers can find the tenancy contract.
grep -q "docs/TENANCY.md" README.md \
  || err "README.md does not link docs/TENANCY.md"

# --- 8. serving docs stay wired ----------------------------------------------
# docs/SERVING.md documents the batch coalescer (src/service/coalescer.*); the
# README must link it, and the GEMM pair must be named in docs/PERFORMANCE.md
# next to the other bench names.
grep -q "docs/SERVING.md" README.md \
  || err "README.md does not link docs/SERVING.md"
if [ -f docs/PERFORMANCE.md ]; then
  for b in BM_GemmTiled BM_GemmReference; do
    grep -q "$b" docs/PERFORMANCE.md \
      || err "docs/PERFORMANCE.md does not mention $b (GEMM pair)"
  done
fi

# --- 10. artifact-cache docs stay wired --------------------------------------
# docs/CACHING.md documents the src/cache layer (key derivation, the
# hit≡recompute contract, GC knobs, on-disk layout); the README, the
# architecture map and the tenancy doc must link it, and the cold/warm
# cached-retrain pair must be named in docs/PERFORMANCE.md next to the
# other bench names.
for doc in README.md docs/ARCHITECTURE.md docs/TENANCY.md; do
  [ -f "$doc" ] && grep -q "docs/CACHING.md" "$doc" \
    || err "$doc does not link docs/CACHING.md"
done
if [ -f docs/PERFORMANCE.md ]; then
  for b in BM_CqcRetrainCachedCold BM_CqcRetrainCachedWarm; do
    grep -q "$b" docs/PERFORMANCE.md \
      || err "docs/PERFORMANCE.md does not mention $b (artifact-cache pair)"
  done
fi

# --- 9. recovery drill artifacts stay in sync -------------------------------
# docs/RECOVERY.md documents scripts/crash_drill.sh and the crash_drill ctest;
# the script must exist, be executable, and be wired in the root CMakeLists.
[ -f scripts/crash_drill.sh ] || err "missing scripts/crash_drill.sh (docs/RECOVERY.md documents it)"
[ -x scripts/crash_drill.sh ] || err "scripts/crash_drill.sh is not executable"
grep -q "crash_drill" CMakeLists.txt \
  || err "crash_drill is not wired as a ctest in the root CMakeLists.txt"

# --- 11. reference kernels stay out of the library ---------------------------
# The naive conv kernels and the reference GEMM live in the test/bench-only
# oracle target (tests/oracle/); the library has one kernel path per NN op and
# no process-global kernel toggle. Nothing under src/ may include an oracle
# header or bring a toggle back.
if grep -rnE '#include[[:space:]]*"oracle/|ConvKernelMode|GemmKernel|set_kernel_mode|set_gemm_kernel' src/ >&2; then
  err "src/ includes a tests/oracle header or names a kernel toggle (lines above)"
fi

# --- 12. one model encoding --------------------------------------------------
# Networks persist only as binary layer records inside the checkpoint
# container (src/nn/serialize.hpp). The decimal-text encoder and its file
# wrappers must not come back beside them.
if grep -rnE 'save_model_file|load_model_file|max_digits10' src/nn src/experts >&2; then
  err "src/nn or src/experts brings back the text model encoding (lines above)"
fi

# --- 13. one fork-join call ---------------------------------------------------
# The library forks and joins only through util::parallel_chunks(pool, n,
# work_per_item, fn), which runs inline when the pool cannot help; callers
# keep no serial fallback of their own. The pool's old chunked entry points,
# its which-thread-am-I query and its test-only future helper must not come
# back under src/.
if grep -rnE 'parallel_for|parallel_chunks_grained|parallel_chunks_work|on_worker|wait_all' src/ >&2; then
  err "src/ names a deleted ThreadPool entry point (lines above)"
fi

# --- 14. one GBDT split engine ------------------------------------------------
# The library grows trees only with the histogram engine (src/gbdt/hist.hpp);
# the exact engine is the test/bench oracle (tests/oracle/exact_gbdt.hpp).
# The engine selector, the exact fit and the serialized bin-boundary section
# must not come back under src/.
if grep -rnE 'SplitEngine|kExactReference|fit_exact|split_engine_name|BIN1' src/ >&2; then
  err "src/ names the exact GBDT split engine or its checkpoint section (lines above)"
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"
exit 0
