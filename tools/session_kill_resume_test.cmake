# CTest script: checkpointed run, simulated crash, recovery, resume — and
# the resumed run must converge to the same objective as an uninterrupted
# run with the identical configuration.
set(DIR "${WORKDIR}/session_kill_resume")
set(REF_DIR "${WORKDIR}/session_kill_resume_ref")
file(REMOVE_RECURSE "${DIR}" "${REF_DIR}")
set(TARGET_EXPR "if throughput >= 2 && latency <= 60 then throughput - 2*throughput*latency + 1000 else throughput - 4*throughput*latency")

# Reference: uninterrupted run.
execute_process(
  COMMAND "${SESSION}" run "${SKETCH}" --backend grid --quiet --seed 5
          --dir "${REF_DIR}" --target "${TARGET_EXPR}"
  RESULT_VARIABLE ref_status OUTPUT_VARIABLE ref_out)
if(NOT ref_status EQUAL 0)
  message(FATAL_ERROR "reference run: expected convergence (0), got ${ref_status}: ${ref_out}")
endif()
string(REGEX MATCH "converged:[^\n]*\n[^\n]*" ref_objective "${ref_out}")

# Crash after the iteration-2 checkpoint.
execute_process(
  COMMAND "${SESSION}" run "${SKETCH}" --backend grid --quiet --seed 5
          --dir "${DIR}" --stop-after 2 --target "${TARGET_EXPR}"
  RESULT_VARIABLE crash_status)
if(NOT crash_status EQUAL 42)
  message(FATAL_ERROR "crashed run: expected simulated-crash exit 42, got ${crash_status}")
endif()

# Inspect must read the surviving snapshot.
execute_process(
  COMMAND "${SESSION}" inspect "${DIR}"
  RESULT_VARIABLE inspect_status OUTPUT_VARIABLE inspect_out)
if(NOT inspect_status EQUAL 0)
  message(FATAL_ERROR "inspect failed (${inspect_status}): ${inspect_out}")
endif()
if(NOT inspect_out MATCHES "iteration:   2")
  message(FATAL_ERROR "inspect did not report iteration 2: ${inspect_out}")
endif()

# Resume to convergence; the objective must match the reference run's.
execute_process(
  COMMAND "${SESSION}" resume "${SKETCH}" --backend grid --quiet --seed 5
          --dir "${DIR}" --target "${TARGET_EXPR}"
  RESULT_VARIABLE resume_status OUTPUT_VARIABLE resume_out)
if(NOT resume_status EQUAL 0)
  message(FATAL_ERROR "resumed run: expected convergence (0), got ${resume_status}: ${resume_out}")
endif()
string(REGEX MATCH "converged:[^\n]*\n[^\n]*" resume_objective "${resume_out}")
if(NOT resume_objective STREQUAL ref_objective)
  message(FATAL_ERROR "resumed objective differs from the uninterrupted run:\n"
                      "reference: ${ref_objective}\nresumed:  ${resume_objective}")
endif()

# A mismatched resume configuration must be refused.
execute_process(
  COMMAND "${SESSION}" resume "${SKETCH}" --backend grid --quiet --seed 6
          --dir "${DIR}" --target "${TARGET_EXPR}"
  RESULT_VARIABLE mismatch_status ERROR_VARIABLE mismatch_err)
if(mismatch_status EQUAL 0)
  message(FATAL_ERROR "resume with a different seed should have been refused")
endif()
if(NOT mismatch_err MATCHES "refusing to resume")
  message(FATAL_ERROR "expected a refusal diagnostic, got: ${mismatch_err}")
endif()

# So must a different back-end: the grid snapshot's tag is `grid`, and
# `--backend portfolio` records (and expects) `portfolio`.
execute_process(
  COMMAND "${SESSION}" resume "${SKETCH}" --backend portfolio --quiet --seed 5
          --dir "${DIR}" --target "${TARGET_EXPR}"
  RESULT_VARIABLE backend_status ERROR_VARIABLE backend_err)
if(backend_status EQUAL 0)
  message(FATAL_ERROR "resume with a different backend should have been refused")
endif()
if(NOT backend_err MATCHES "backend 'grid'.*refusing to resume")
  message(FATAL_ERROR "expected a backend refusal diagnostic, got: ${backend_err}")
endif()
