# CTest script: trace a synthesis run with the CLI, then render the trace
# with trace_report and check the report carries the expected sections.
set(TRACE "${WORKDIR}/cli_trace.jsonl")
set(REPORT_MD "${WORKDIR}/cli_trace_report.md")
set(TARGET_EXPR "if throughput >= 2 && latency <= 60 then throughput - 2*throughput*latency + 1000 else throughput - 4*throughput*latency")

execute_process(
  COMMAND "${CLI}" "${SKETCH}" --backend grid --quiet --seed 7
          --trace "${TRACE}" --metrics --target "${TARGET_EXPR}"
  RESULT_VARIABLE run_status OUTPUT_VARIABLE run_out)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR "traced run: expected convergence (0), got ${run_status}")
endif()
if(NOT EXISTS "${TRACE}")
  message(FATAL_ERROR "trace file was not written")
endif()
# --metrics must print the registry tables after the run.
if(NOT run_out MATCHES "Latency histograms")
  message(FATAL_ERROR "--metrics output missing histogram table: ${run_out}")
endif()

# The trace must open with run_start and close with run_end, all v1 records.
file(STRINGS "${TRACE}" trace_lines)
list(LENGTH trace_lines n_lines)
if(n_lines LESS 3)
  message(FATAL_ERROR "trace suspiciously short (${n_lines} lines)")
endif()
list(GET trace_lines 0 first_line)
list(GET trace_lines -1 last_line)
if(NOT first_line MATCHES "\"ev\":\"run_start\"")
  message(FATAL_ERROR "first trace line is not run_start: ${first_line}")
endif()
if(NOT last_line MATCHES "\"ev\":\"run_end\"")
  message(FATAL_ERROR "last trace line is not run_end: ${last_line}")
endif()
if(NOT first_line MATCHES "\"v\":1")
  message(FATAL_ERROR "trace line missing schema version: ${first_line}")
endif()

# A trace written before schema 1.8 may carry "portfolio" events, and one
# written before 1.9 the interval pre-check's events; the report tallies
# them as unknown instead of dropping them.
file(APPEND "${TRACE}" "{\"v\":1,\"ts\":0.5,\"run\":\"swan\",\"ev\":\"portfolio\",\"winner\":\"grid\",\"secs\":0.001}\n")
file(APPEND "${TRACE}" "{\"v\":1,\"ts\":0.6,\"run\":\"swan\",\"ev\":\"interval_precheck\",\"kind\":\"distinguishing\",\"verdict\":\"edge_refuted\"}\n")

execute_process(
  COMMAND "${REPORT}" "${TRACE}" -o "${REPORT_MD}"
  RESULT_VARIABLE report_status)
if(NOT report_status EQUAL 0)
  message(FATAL_ERROR "trace_report failed with status ${report_status}")
endif()

# Substring checks (string(FIND), not MATCHES: the needles contain regex
# metacharacters like table pipes).
file(READ "${REPORT_MD}" report_text)
foreach(needle
    "# Trace report"
    "| status | converged |"
    "### Solver-time breakdown"
    "| grid_sync |"
    "### Oracle answers"
    "### Iterations"
    "### Unknown events"
    "| portfolio | 1 |"
    "| interval_precheck | 1 |")
  string(FIND "${report_text}" "${needle}" found_at)
  if(found_at EQUAL -1)
    message(FATAL_ERROR "report missing '${needle}':\n${report_text}")
  endif()
endforeach()
