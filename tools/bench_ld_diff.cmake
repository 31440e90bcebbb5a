# CTest script: run bench_ld_engines twice in separate directories and assert
# omega_metrics_diff finds no self-regression between the two BENCH_LD.json
# files — the CI guard that the LD-engine throughput numbers (cells/s per
# engine x missing-rate x sample-count) stay schema-stable and diffable.
# Unlike bench_mt_diff, the bench's own exit code IS honored: it carries the
# packed-vs-gemm >= 5x acceptance gate and the packed >= popcount gate in
# every samples x missing row, which self-disarm on hosts/binaries without
# AVX2, so a red exit is a real kernel regression. Invoked as:
#   cmake -DBENCH_BIN=... -DDIFF_BIN=... -DWORK_DIR=... -P bench_ld_diff.cmake

foreach(var BENCH_BIN DIFF_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_ld_diff: ${var} not set")
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
  if(NOT EXISTS "${WORK_DIR}/${run}/BENCH_LD.json")
    message(FATAL_ERROR
      "bench_ld_diff: run '${run}' produced no BENCH_LD.json "
      "(exit ${bench_result})\n${bench_output}")
  endif()
  if(NOT bench_result EQUAL 0)
    message(FATAL_ERROR
      "bench_ld_diff: run '${run}' failed a packed throughput gate "
      "(exit ${bench_result})\n${bench_output}")
  endif()
endforeach()

# Generous threshold (120%) and a 50 ms floor: the two runs measure identical
# code, so only a broken diff tool / unstable schema should trip this, not
# measurement noise on short stages. --allow-schema-drift keeps baselines
# from a previous schema version usable (intersecting keys still gate).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_LD.json" "${WORK_DIR}/b/BENCH_LD.json"
    --threshold 1.2 --min-seconds 0.05 --allow-schema-drift
  RESULT_VARIABLE diff_result
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_output)
message(STATUS "omega_metrics_diff output:\n${diff_output}")
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
    "bench_ld_diff: self-comparison regressed (exit ${diff_result})")
endif()

# Identical inputs must be a clean pass as well (exit 0, no regression).
execute_process(
  COMMAND "${DIFF_BIN}"
    "${WORK_DIR}/a/BENCH_LD.json" "${WORK_DIR}/a/BENCH_LD.json"
  RESULT_VARIABLE identical_result
  OUTPUT_QUIET ERROR_QUIET)
if(NOT identical_result EQUAL 0)
  message(FATAL_ERROR
    "bench_ld_diff: identical inputs reported exit ${identical_result}")
endif()
