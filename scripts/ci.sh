#!/usr/bin/env bash
# Full local CI pipeline:
#   1. plain release-with-asserts build + complete ctest suite
#   2. the same suite again under GENCACHE_CHECK=1 (phase-boundary
#      invariant passes active inside the runtime/simulator tests)
#   3. ThreadSanitizer build, running the `tsan`-labelled concurrency
#      tests (thread pool, parallel sweep, and the fleet simulator's
#      racing shared-store processes) plus the fleet_replay smoke
#      bench — the shared code store's shard locks under real races
#   4. AddressSanitizer+UBSan build: first the `replay`-, `frontend`-
#      and `tiers`-labelled bit-identity tests (compiled/batched
#      replay vs the legacy loop, predecoded front end vs legacy
#      dispatch, tier-pipeline adapters vs the frozen pre-refactor
#      managers — the memory-unsafe-optimization tripwires), then the
#      rest of the suite
#   5. smoke policy tournament (2 profiles x ~28 configurations) —
#      the sharded multi-config replay driver end-to-end, run in the
#      plain build and (unless --fast) again under ASan+UBSan; the
#      `tournament`-labelled determinism/Pareto tests run in step 1
#      with the rest of the suite
#   6. repository benchmark smoke test (python3 perfbench/smoke_test.py,
#      plain build under .bench_build/): every workload twice at tiny
#      size — digests must match run to run, every BENCHMARK.json
#      metric must print with its unit, and a corrupted golden digest
#      must be caught
#   7. GENCACHE_SIMD=OFF build: the scalar-only fallback must build
#      and pass the replay bit-identity and SIMD-kernel tests
#   8. gencheck over the example workloads — topology lints, live
#      runs, legacy sim replays, and batched-replay end states; any
#      diagnostic of severity error (or worse) fails the pipeline
#   9. gencheck temporal over recorded journals: record gzip and mpeg
#      event streams with logreplay_tool, then replay them offline
#      through the temporal invariant engine (gencheck --journal);
#      also exercises the distinct load-failure exit code (3)
#  10. clang -Wthread-safety -Werror compile of the annotated tree
#      (ThreadPool, shared sweep/tournament state); self-skips with a
#      notice when no clang toolchain is installed
#  11. formatting check (no-op when clang-format is absent)
#
# Usage: scripts/ci.sh [--fast]
#   --fast skips the sanitizer builds (steps 3, 4, and the sanitized
#   half of 5).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
jobs=$(nproc 2>/dev/null || echo 4)

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

step() { echo; echo "=== ci: $* ==="; }

step "plain build + full test suite"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/tmp/gencache-ci-configure.log
cmake --build build-ci -j "$jobs"
ctest --test-dir build-ci --output-on-failure -j "$jobs"

step "full test suite with GENCACHE_CHECK=1"
GENCACHE_CHECK=1 ctest --test-dir build-ci --output-on-failure \
    -j "$jobs"

if [[ $fast -eq 0 ]]; then
    step "ThreadSanitizer build + tsan-labelled tests"
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGENCACHE_SANITIZE=thread >/tmp/gencache-tsan-configure.log
    cmake --build build-tsan -j "$jobs"
    ctest --test-dir build-tsan --output-on-failure -L tsan \
        -j "$jobs"

    step "fleet_replay smoke bench (TSan build)"
    # The threaded leg races every process on the store's shard
    # locks; TSan must stay silent.
    (cd build-tsan && bench/fleet_replay --smoke)

    step "ASan+UBSan build + replay/frontend/tiers bit-identity tests"
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGENCACHE_SANITIZE=address,undefined \
        >/tmp/gencache-asan-configure.log
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure \
        -L "replay|frontend|tiers" -j "$jobs"

    step "ASan+UBSan remaining test suite"
    ctest --test-dir build-asan --output-on-failure \
        -LE "replay|frontend|tiers" -j "$jobs"
else
    step "skipping sanitizer builds (--fast)"
fi

step "smoke policy tournament (plain build)"
(cd build-ci && bench/policy_tournament --smoke)

step "fleet_replay smoke bench (plain build)"
(cd build-ci && bench/fleet_replay --smoke)

if [[ $fast -eq 0 ]]; then
    step "smoke policy tournament (ASan+UBSan build)"
    (cd build-asan && bench/policy_tournament --smoke)
fi

step "repository benchmark smoke test (plain build)"
python3 perfbench/smoke_test.py

step "GENCACHE_SIMD=OFF scalar-fallback build + replay/simd tests"
cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGENCACHE_SIMD=OFF >/tmp/gencache-nosimd-configure.log
cmake --build build-nosimd -j "$jobs"
ctest --test-dir build-nosimd --output-on-failure \
    -R "Simd|ReplayIdentity.BlockedKernelMatchesReferenceAcrossLaneCounts|CompiledLog" \
    -j "$jobs"

step "gencheck on example workloads"
# gencheck exits 1 on any error-severity diagnostic (its subjects
# include batched-replay lane end states); keep the JSON report as a
# CI artifact.
"$root"/build-ci/tools/gencheck --json build-ci/gencheck-report.json

step "gencheck temporal over recorded journals"
mkdir -p build-ci/journals
"$root"/build-ci/examples/logreplay_tool generate gzip \
    build-ci/journals/gzip.gclogb
"$root"/build-ci/examples/logreplay_tool generate mpeg \
    build-ci/journals/mpeg.gclogb
"$root"/build-ci/tools/gencheck \
    --journal build-ci/journals/gzip.gclogb \
    --journal build-ci/journals/mpeg.gclogb \
    --json build-ci/gencheck-temporal-report.json
# The load-failure exit code must stay distinct from "found errors".
load_rc=0
"$root"/build-ci/tools/gencheck \
    --journal build-ci/journals/does-not-exist.gclogb \
    --quiet 2>/dev/null || load_rc=$?
if [[ $load_rc -ne 3 ]]; then
    echo "ci: gencheck load failure must exit 3 (got $load_rc)" >&2
    exit 1
fi

step "clang -Wthread-safety compile"
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" \
        >/tmp/gencache-tsa-configure.log
    cmake --build build-tsa -j "$jobs"
else
    echo "ci: clang++ not installed; skipping thread-safety analysis"
fi

step "format check"
scripts/format-check.sh

echo
echo "=== ci: all stages passed ==="
