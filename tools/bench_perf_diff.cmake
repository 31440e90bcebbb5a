# CTest script: the --perf-counters overhead gate. bench_perf_overhead runs
# interleaved off/on pairs of one scan in a single process and exits non-zero
# when the median on/off wall-time ratio exceeds 1.03 (3%); this script fails
# on that exit code, then checks that omega_metrics_diff passes identical
# inputs with a --json verdict that agrees. Invoked as:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_perf_diff.cmake

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_perf_diff: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BENCH_BIN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_result
  OUTPUT_VARIABLE bench_output
  ERROR_VARIABLE bench_output)
message(STATUS "bench_perf_overhead output:\n${bench_output}")
if(NOT EXISTS "${WORK_DIR}/BENCH_PERF.json")
  message(FATAL_ERROR
    "bench_perf_diff: no BENCH_PERF.json (exit ${bench_result})")
endif()
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR
    "bench_perf_diff: median counter overhead exceeded 3% "
    "(exit ${bench_result})")
endif()

# Identical inputs must be a clean pass (exit 0), and the --json rendering
# must agree with the exit code so automation can consume the verdict.
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/BENCH_PERF.json" "${WORK_DIR}/BENCH_PERF.json"
    --json
  RESULT_VARIABLE identical_result
  OUTPUT_VARIABLE identical_output)
if(NOT identical_result EQUAL 0)
  message(FATAL_ERROR
    "bench_perf_diff: identical inputs reported exit ${identical_result}")
endif()
string(FIND "${identical_output}" "\"exit_reason\": \"ok\"" reason_pos)
if(reason_pos EQUAL -1)
  message(FATAL_ERROR
    "bench_perf_diff: --json verdict missing exit_reason ok:\n${identical_output}")
endif()
