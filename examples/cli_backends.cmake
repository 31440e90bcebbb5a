# CTest script for omegaplus_scan's four backends on one small simulated
# input:
#   * --backend cpu builds no GPU pool (no pool.* metric is ever registered);
#   * gpu and fpga print their "modeled device time" lines, whose counts are
#     the profile's (the metrics document carries the same numbers);
#   * hetero's OmegaPlus_Report is byte-identical to cpu's, also under
#     --modeled-timeout 1e-12, where every accelerator launch times out: the
#     metrics then show caught errors and faulted spans re-dispatched to the
#     CPU, and no quarantined position.
# Invoked as:
#   cmake -DSCAN_BIN=... -DWORK_DIR=... -P cli_backends.cmake

foreach(var SCAN_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_backends: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(scan_args
  --simulate-snps 600 --simulate-samples 32 --seed 5
  --grid 60 --minwin 10000 --maxwin 200000 --reports-dir "${WORK_DIR}")

# Runs one scan named `name`; leaves its stdout in `out_var` and its metrics
# document in `${WORK_DIR}/<name>.json`.
function(scan name out_var)
  execute_process(
    COMMAND "${SCAN_BIN}" --name ${name} ${scan_args}
      --metrics-json "${WORK_DIR}/${name}.json" ${ARGN}
    RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "cli_backends: '${name}' exited ${result}\n${output}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

# Reads the metrics value at the JSON path given in ARGN.
function(metric name out_var)
  file(READ "${WORK_DIR}/${name}.json" json)
  string(JSON value GET "${json}" ${ARGN})
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

function(expect_same_report name)
  file(READ "${WORK_DIR}/OmegaPlus_Report.cpu" cpu_report)
  file(READ "${WORK_DIR}/OmegaPlus_Report.${name}" report)
  if(NOT report STREQUAL cpu_report)
    message(FATAL_ERROR "cli_backends: report of '${name}' differs from cpu's")
  endif()
endfunction()

# --- cpu: no GPU pool --------------------------------------------------------

scan(cpu output --backend cpu --metrics-text "${WORK_DIR}/cpu.prom")
file(READ "${WORK_DIR}/cpu.prom" prom)
if(prom MATCHES "omega_pool_")
  message(FATAL_ERROR
    "cli_backends: --backend cpu built a thread pool (pool metrics present)")
endif()

# --- gpu and fpga: modeled device time lines from the profile --------------

scan(gpu output --backend gpu)
if(NOT output MATCHES
   "gpu-sim: modeled device time [0-9.]+ s \\(([0-9]+) on K1, ([0-9]+) on K2\\)")
  message(FATAL_ERROR "cli_backends: gpu printed no modeled time\n${output}")
endif()
set(printed_k1 "${CMAKE_MATCH_1}")
set(printed_k2 "${CMAKE_MATCH_2}")
metric(gpu k1 gpu kernel1_launches)
metric(gpu k2 gpu kernel2_launches)
if(NOT printed_k1 EQUAL k1 OR NOT printed_k2 EQUAL k2 OR
   printed_k1 EQUAL 0 AND printed_k2 EQUAL 0)
  message(FATAL_ERROR
    "cli_backends: gpu printed ${printed_k1}/${printed_k2} launches, "
    "metrics say ${k1}/${k2}")
endif()

scan(fpga output --backend fpga)
if(NOT output MATCHES
   "fpga-sim: modeled device time [0-9.]+ s \\(([0-9]+) hw / ([0-9]+) sw omegas\\)")
  message(FATAL_ERROR "cli_backends: fpga printed no modeled time\n${output}")
endif()
set(printed_hw "${CMAKE_MATCH_1}")
set(printed_sw "${CMAKE_MATCH_2}")
metric(fpga hw fpga hw_omegas)
metric(fpga sw fpga sw_omegas)
if(NOT printed_hw EQUAL hw OR NOT printed_sw EQUAL sw OR printed_hw EQUAL 0)
  message(FATAL_ERROR
    "cli_backends: fpga printed ${printed_hw}/${printed_sw} omegas, "
    "metrics say ${hw}/${sw}")
endif()

# --- hetero: cpu's report, with and without the modeled watchdog ----------

scan(hetero output --backend hetero --threads 3)
expect_same_report(hetero)

scan(hetero_timeout output --backend hetero --threads 3
  --modeled-timeout 1e-12)
expect_same_report(hetero_timeout)
metric(hetero_timeout caught faults errors_caught)
metric(hetero_timeout quarantined faults quarantined_positions)
metric(hetero_timeout faulted hetero faulted_spans)
if(caught EQUAL 0 OR faulted EQUAL 0 OR NOT quarantined EQUAL 0)
  message(FATAL_ERROR
    "cli_backends: hetero --modeled-timeout caught ${caught} errors, "
    "faulted ${faulted} spans, quarantined ${quarantined} positions")
endif()

message(STATUS "cli_backends: cpu, gpu, fpga and hetero OK")
