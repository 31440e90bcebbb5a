# CTest script: run bench_hetero_split twice in separate directories, fail
# when either run exits non-zero (its modeled-time gates: bitwise scores, no
# re-dispatch without a fault, planner == device seconds, hetero auto's
# accelerator makespan within the best single accelerator's), and assert
# omega_metrics_diff finds no self-regression between the two
# BENCH_HETERO.json files — the co-scheduler numbers (partition tables,
# re-dispatch counters, modeled vs measured seconds) stay schema-stable and
# diffable. Invoked as:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_hetero_diff.cmake

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_hetero_diff: ${var} not set")
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
  if(NOT bench_result EQUAL 0)
    message(FATAL_ERROR
      "bench_hetero_diff: run '${run}' failed its gates "
      "(exit ${bench_result})\n${bench_output}")
  endif()
  if(NOT EXISTS "${WORK_DIR}/${run}/BENCH_HETERO.json")
    message(FATAL_ERROR
      "bench_hetero_diff: run '${run}' produced no BENCH_HETERO.json\n"
      "${bench_output}")
  endif()
endforeach()

# Gate on the deterministic counters only: the scans are bitwise-identical
# runs of identical code, so omega_evaluations must not move at all, while
# per-worker busy seconds and partition walls swing with host load. A
# generous threshold and a 50 ms floor keep even the watched keys robust.
# --allow-schema-drift keeps baselines from a previous schema version usable
# (intersecting keys still gate).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_HETERO.json" "${WORK_DIR}/b/BENCH_HETERO.json"
    --threshold 1.2 --min-seconds 0.05 --allow-schema-drift
    --watch counters.omega_evaluations --watch counters.positions
  RESULT_VARIABLE diff_result
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_output)
message(STATUS "omega_metrics_diff output:\n${diff_output}")
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
    "bench_hetero_diff: self-comparison regressed (exit ${diff_result})")
endif()

# Identical inputs must be a clean pass as well (exit 0, no regression).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_HETERO.json" "${WORK_DIR}/a/BENCH_HETERO.json"
  RESULT_VARIABLE identical_result
  OUTPUT_QUIET ERROR_QUIET)
if(NOT identical_result EQUAL 0)
  message(FATAL_ERROR
    "bench_hetero_diff: identical inputs reported exit ${identical_result}")
endif()
