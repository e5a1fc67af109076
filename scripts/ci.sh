#!/usr/bin/env bash
# Full local CI pipeline:
#   1. no CMakeLists.txt may call find_package(benchmark): nothing
#      may depend on google-benchmark again; then a plain
#      release-with-asserts build, warnings as errors
#      (GENCACHE_WARNINGS_AS_ERRORS=ON), + complete ctest suite
#   2. the same suite again under GENCACHE_CHECK=1 (phase-boundary
#      invariant passes, and the temporal engine as a replay lane's
#      probe, active inside the runtime and replay tests)
#   3. ThreadSanitizer build, running the `tsan`-labelled concurrency
#      tests (thread pool, parallel sweep, the fleet simulator's
#      racing shared-store processes, and the `figures` texts — Table
#      1, the paper figures, Table 2, the §6.1 sweep, the ablations and
#      the fragmentation study — measured on 4 workers) plus the
#      fleet_replay smoke bench — the shared code store's shard locks
#      under real races
#   4. AddressSanitizer+UBSan build: first the `replay`-, `frontend`-,
#      `tiers`-, `workload`-, `tracelog`-, `figures`- and
#      `fuzz`-labelled tests (the replay loop vs its committed rows and
#      vs the independent Figure-8 model on random topologies and
#      logs, the live runtime's logs and stats vs their committed
#      digests, the tier-pipeline adapters vs their committed
#      digests, the generated logs vs their committed digests, the
#      radix sort of the generator's 16-byte event records vs
#      std::stable_sort and the compiled log generated from those
#      records vs the compile of the generated log, the gclog codec
#      vs its committed encodings and the binary and text corrupt-stream
#      outcomes, the `figures` texts (Table 1, every paper figure,
#      Table 2, the §6.1 sweep, the ablations and the fragmentation
#      study) vs their committed digests — the
#      memory-unsafe-optimization tripwires — and the
#      tool-level fuzz cases, seeded corruptions of those streams fed
#      to the sanitized gencheck --journal and logreplay_tool replay),
#      then the rest of the suite
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
#      and pass every `replay`-, `tiers`- and `figures`-labelled test
#      (selected by label, so a renamed test is not silently dropped;
#      they hold the scalar build to the same committed rows and
#      digests, so it must print the same `figures` texts — the paper
#      figures, Table 2, the §6.1 sweep, the ablations and the
#      fragmentation study — and to the Figure-8 model) plus the
#      SIMD-kernel and CompiledLog tests
#   8. gencheck over the example workloads — topology lints, live
#      runs, one-lane replays watched by the temporal engine, and
#      multi-lane replay end states; any diagnostic of severity error
#      (or worse) fails the pipeline
#   9. gencheck temporal over recorded journals: record gzip and mpeg
#      event streams with logreplay_tool (gzip in both binary
#      versions), then replay them offline through the temporal
#      invariant engine (gencheck --journal); a seven-event module
#      reload journal must pass gencheck --journal and replay through
#      logreplay_tool; also exercises the distinct load-failure exit
#      code (3) on a missing journal and on journals whose events break
#      the log's rules, where logreplay_tool replay must exit 1 (its
#      fatal), not die by a signal
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
if grep -rniE --include=CMakeLists.txt --exclude-dir='build*' \
    --exclude-dir=.bench_build 'find_package *\( *benchmark\b' .; then
    echo "ci: nothing may depend on google-benchmark again;" \
        "drop the find_package(benchmark) above" >&2
    exit 1
fi
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGENCACHE_WARNINGS_AS_ERRORS=ON \
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

    step "ASan+UBSan build + replay/frontend/tiers/workload/tracelog/figures/fuzz tests"
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGENCACHE_SANITIZE=address,undefined \
        >/tmp/gencache-asan-configure.log
    cmake --build build-asan -j "$jobs"
    ctest --test-dir build-asan --output-on-failure \
        -L "replay|frontend|tiers|workload|tracelog|figures|fuzz" \
        -j "$jobs"

    step "ASan+UBSan remaining test suite"
    ctest --test-dir build-asan --output-on-failure \
        -LE "replay|frontend|tiers|workload|tracelog|figures|fuzz" \
        -j "$jobs"
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

step "GENCACHE_SIMD=OFF scalar-fallback build + replay/tiers/figures/simd tests"
cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGENCACHE_SIMD=OFF >/tmp/gencache-nosimd-configure.log
cmake --build build-nosimd -j "$jobs"
ctest --test-dir build-nosimd --output-on-failure \
    -L "replay|tiers|figures" -j "$jobs"
ctest --test-dir build-nosimd --output-on-failure \
    -R "Simd|CompiledLog" -j "$jobs"

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
# The same gzip events as v1, so both binary decoders run end to end.
"$root"/build-ci/examples/logreplay_tool generate gzip \
    build-ci/journals/gzip-v1.gclogb --format v1
"$root"/build-ci/tools/gencheck \
    --journal build-ci/journals/gzip.gclogb \
    --journal build-ci/journals/mpeg.gclogb \
    --journal build-ci/journals/gzip-v1.gclogb \
    --json build-ci/gencheck-temporal-report.json
# A module reload re-creates trace 42 under its old id: the compiled
# replay must take it as a fresh trace, end to end.
cat >build-ci/journals/module-reload.gclog <<'JOURNAL'
gclog 1
benchmark reload-journal
duration_us 6
footprint_bytes 64
events 7
load 0 0 0 1
create 1 42 64 1
exec 2 42 0 0
unload 3 0 0 1
load 4 0 0 1
create 5 42 64 1
exec 6 42 0 0
JOURNAL
"$root"/build-ci/tools/gencheck \
    --journal build-ci/journals/module-reload.gclog --quiet
"$root"/build-ci/examples/logreplay_tool replay \
    build-ci/journals/module-reload.gclog
# The load-failure exit code must stay distinct from "found errors",
# for a missing journal and for journals that execute a trace before
# creating it, use the reserved trace id (2^64 - 1), create a trace in
# a module that is not loaded, or spell a number with a sign (the
# text reader takes only whole unsigned decimals that fit the field,
# so -1 is rejected). logreplay_tool replay must fail to load each of
# them with its fatal (exit 1), not die by a signal.
cat >build-ci/journals/exec-before-create.gclog <<'JOURNAL'
gclog 1
benchmark broken
duration_us 6
footprint_bytes 64
events 3
load 0 0 0 1
exec 5 42 0 0
create 6 42 64 1
JOURNAL
cat >build-ci/journals/reserved-trace.gclog <<'JOURNAL'
gclog 1
benchmark broken
duration_us 6
footprint_bytes 64
events 3
load 0 0 0 1
create 5 18446744073709551615 64 1
exec 6 18446744073709551615 0 0
JOURNAL
cat >build-ci/journals/unloaded-module.gclog <<'JOURNAL'
gclog 1
benchmark broken
duration_us 6
footprint_bytes 64
events 2
create 5 42 64 7
exec 6 42 0 0
JOURNAL
cat >build-ci/journals/signed-numbers.gclog <<'JOURNAL'
gclog 1
benchmark broken
duration_us -6
footprint_bytes 64
events 2
load 0 0 0 1
create 5 42 -1 1
JOURNAL
for journal in does-not-exist.gclogb exec-before-create.gclog \
    reserved-trace.gclog unloaded-module.gclog signed-numbers.gclog; do
    load_rc=0
    "$root"/build-ci/tools/gencheck \
        --journal "build-ci/journals/$journal" \
        --quiet 2>/dev/null || load_rc=$?
    if [[ $load_rc -ne 3 ]]; then
        echo "ci: gencheck load failure on $journal must exit 3" \
            "(got $load_rc)" >&2
        exit 1
    fi
    replay_rc=0
    "$root"/build-ci/examples/logreplay_tool replay \
        "build-ci/journals/$journal" 2>/dev/null || replay_rc=$?
    if [[ $replay_rc -ne 1 ]]; then
        echo "ci: logreplay_tool replay of $journal must exit 1" \
            "(got $replay_rc)" >&2
        exit 1
    fi
done

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
