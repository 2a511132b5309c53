#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer
# (-DCOMPSYNTH_SANITIZE=address,undefined) in a dedicated build directory and
# runs the test suite under it.
#
# Usage:
#   scripts/check_asan_ubsan.sh [ctest-regex]
#
# With no argument the full suite runs; pass a regex (as for `ctest -R`) to
# restrict to a subset, e.g.:
#   scripts/check_asan_ubsan.sh 'Interval|Soundness|GridFinderReference'
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan-ubsan"
regex="${1:-}"

cmake -B "$build" -S "$repo" \
  -DCOMPSYNTH_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$build" -j "$(nproc)"

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

cd "$build"
if [[ -n "$regex" ]]; then
  ctest --output-on-failure -R "$regex"
else
  ctest --output-on-failure
fi
echo "asan+ubsan: clean"
