#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DCOMPSYNTH_SANITIZE=thread) in a
# dedicated build directory and runs every concurrency-exercising test: the
# thread pool, the sharded GridFinder sync (checked against the brute-force
# reference at 4 threads), the acceleration differentials (Z3 accelerations
# and the portfolio, whose proof runs on the caller's thread but whose grid
# shards its sync across the pool), the synthesis service (host +
# protocol), the seeded concurrency stress suite
# (tests/concurrency_stress_test.cpp) and the bench smokes.
#
# First-party code is expected TSan-clean with no suppressions. The only
# entries allowed in scripts/tsan.supp are third-party reports with no
# first-party frame on the stack, each with a written justification next to
# it (currently one: libz3's cross-thread scoped-timer mutex handoff) —
# never a blanket list.
#
# Usage:
#   scripts/check_tsan.sh [ctest-regex]
#
# The default regex covers the concurrent paths; pass your own (as for
# `ctest -R`) to widen or narrow it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-tsan"
regex="${1:-ThreadPool|GridFinder|GridFinderReference|AccelDifferential|ServeProtocol|ServeHost|ConcurrencyStress|bench_eval_smoke|bench_solver_smoke}"

cmake -B "$build" -S "$repo" \
  -DCOMPSYNTH_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 suppressions=$repo/scripts/tsan.supp"

cd "$build"
ctest --output-on-failure -R "$regex"
echo "tsan: clean"
