#!/usr/bin/env bash
# Full local CI sweep, in dependency order:
#   1. configure + build the main tree
#   2. the complete ctest suite (unit, integration, differential, lint
#      gates, docs_check, docs_blocks, session kill/resume end to end);
#      every test ctest skipped is named with its logged SKIP reason, right
#      after the suite and again in the closing line
#   3. the synthesis-service end-to-end smokes, re-run explicitly so a
#      daemon/protocol regression is named in the CI log even when the
#      suite above was filtered (serve_smoke drives every protocol verb
#      and error code through a live daemon; serve_kill_resume kill -9s
#      the daemon mid-run and diffs against an uninterrupted reference)
#   4. the distributed-sync end-to-end stage (test_dist differential +
#      fault-injection suite; dist_kill_worker kill -9s a worker mid-sync)
#   5. the end-to-end benchmark's smoke test (perfbench/smoke_test.py):
#      builds the benchmark from ../src in its own tree and runs every
#      workload at smoke size, so a change that breaks the benchmark's
#      build or its correctness gates fails here
#   6. the standalone docs checkers (links + code blocks + README index
#      completeness, which gates docs/SERVICE.md and friends)
#   7. the concurrency-convention static pass (scripts/check_static.sh)
#   8. the thread-safety analysis build: with clang++ on PATH, a full
#      -Wthread-safety -Werror=thread-safety configure+build in its own
#      build dir (plus the negative-control ctest); otherwise a named skip
#   9. the address+undefined sanitizer build/test sweep
#  10. the ThreadSanitizer build/test sweep (scripts/check_tsan.sh) over
#      the concurrent paths, including the seeded stress suite
#
# Usage:
#   scripts/ci_full.sh                 # everything
#   COMPSYNTH_SKIP_SANITIZERS=1 scripts/ci_full.sh   # fast pass, no
#                                      # asan/ubsan/tsan rebuilds
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"

echo "== configure + build ($build) =="
cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)"

echo "== test suite =="
ctest --test-dir "$build" -j "$(nproc)" --output-on-failure
# Checks that skip (no clang-tidy, no clang++) are not passes: name each one
# with the SKIP line it logged, here and again at the end. ctest keeps every
# test's output in LastTest.log, which the later ctest stages overwrite, so
# read it now.
skips=""
last_log="$build/Testing/Temporary/LastTest.log"
if [ -f "$last_log" ]; then
  skips="$(awk '
    /^[0-9]+\/[0-9]+ Test: / { name = $3; reason = ""; in_output = 0 }
    /^Output:$/ { in_output = 1; next }
    /^<end of output>$/ { in_output = 0 }
    in_output && reason == "" && toupper($0) ~ /SKIP/ { reason = $0 }
    /^Skip regular expression found in output/ {
      sub(/^-- /, "", reason)
      if (reason == "") reason = "(no reason logged)"
      print "  " (index(reason, name ": ") == 1 ? "" : name ": ") reason
    }' "$last_log")"
fi
if [ -n "$skips" ]; then
  echo "skipped checks:"
  echo "$skips"
fi

echo "== synthesis service end to end =="
ctest --test-dir "$build" -R '^serve_(smoke|kill_resume)$' --output-on-failure

echo "== distributed sync end to end =="
# The coordinator/worker fault-tolerance path, re-run explicitly: test_dist
# is the differential + fault-injection suite, dist_kill_worker kill -9s a
# live worker mid-sync and diffs against a pure local run.
ctest --test-dir "$build" -R '^(test_dist|dist_kill_worker)$' --output-on-failure

echo "== end-to-end benchmark smoke =="
python3 "$repo/perfbench/smoke_test.py"

echo "== docs: links =="
"$repo/scripts/check_docs_links.sh" "$repo"

echo "== docs: code blocks =="
"$repo/scripts/check_docs_blocks.sh" "$repo" "$build/tools/compsynth_lint"

echo "== static pass: concurrency conventions =="
bash "$repo/scripts/check_static.sh"
bash "$repo/scripts/check_static.sh" --self-test

echo "== thread-safety analysis build =="
if command -v clang++ >/dev/null 2>&1; then
  tsbuild="$repo/build-thread-safety"
  cmake -B "$tsbuild" -S "$repo" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCOMPSYNTH_THREAD_SAFETY=ON >/dev/null
  cmake --build "$tsbuild" -j "$(nproc)"
  ctest --test-dir "$tsbuild" -R '^thread_safety_negative$' --output-on-failure
else
  echo "thread-safety build skipped (no clang++ on PATH; annotations are"
  echo "inert under this toolchain — scripts/check_static.sh still gates"
  echo "annotation coverage)"
fi

if [ "${COMPSYNTH_SKIP_SANITIZERS:-0}" != "1" ]; then
  echo "== asan + ubsan sweep =="
  "$repo/scripts/check_asan_ubsan.sh"
  echo "== tsan sweep =="
  "$repo/scripts/check_tsan.sh"
else
  echo "== asan/ubsan/tsan sweeps skipped (COMPSYNTH_SKIP_SANITIZERS=1) =="
fi

if [ -n "$skips" ]; then
  echo "ci_full: all green, except these skipped checks:"
  echo "$skips"
else
  echo "ci_full: all green"
fi
