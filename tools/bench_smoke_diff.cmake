# CTest script: run bench_scan_hotpath twice in separate directories and
# assert omega_metrics_diff finds no self-regression between the two
# BENCH_SCAN.json files. The bench's own exit code is honored: its one gate
# (dispatched omega kernel >= 6x scalar) disarms itself on hosts without
# AVX2, so a red exit is a real kernel regression. Invoked as:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_smoke_diff.cmake

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke_diff: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/a" "${WORK_DIR}/b")

foreach(run a b)
  execute_process(
    COMMAND "${BENCH_BIN}"
    WORKING_DIRECTORY "${WORK_DIR}/${run}"
    RESULT_VARIABLE bench_result
    OUTPUT_VARIABLE bench_output
    ERROR_VARIABLE bench_output)
  if(NOT EXISTS "${WORK_DIR}/${run}/BENCH_SCAN.json")
    message(FATAL_ERROR
      "bench_smoke_diff: run '${run}' produced no BENCH_SCAN.json "
      "(exit ${bench_result})\n${bench_output}")
  endif()
  if(NOT bench_result EQUAL 0)
    message(FATAL_ERROR
      "bench_smoke_diff: run '${run}' failed the omega-kernel speedup gate "
      "(exit ${bench_result})\n${bench_output}")
  endif()
endforeach()

# Generous threshold (120%) and a 50 ms floor: the two runs measure identical
# code, so only a broken diff tool / unstable schema should trip this, not
# scheduler noise on small stages. --allow-schema-drift keeps baselines from
# a previous schema version usable (intersecting keys still gate).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_SCAN.json" "${WORK_DIR}/b/BENCH_SCAN.json"
    --threshold 1.2 --min-seconds 0.05 --allow-schema-drift
  RESULT_VARIABLE diff_result
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_output)
message(STATUS "omega_metrics_diff output:\n${diff_output}")
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke_diff: self-comparison regressed (exit ${diff_result})")
endif()

# Identical inputs must be a clean pass as well (exit 0, no regression).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_SCAN.json" "${WORK_DIR}/a/BENCH_SCAN.json"
  RESULT_VARIABLE identical_result
  OUTPUT_QUIET ERROR_QUIET)
if(NOT identical_result EQUAL 0)
  message(FATAL_ERROR
    "bench_smoke_diff: identical inputs reported exit ${identical_result}")
endif()
