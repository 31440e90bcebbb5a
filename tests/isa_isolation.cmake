# CTest script: compile each ISA-flagged translation unit at -O0 with its
# per-file flags and fail if nm lists a weak (W) or weak-object (V) symbol.
# At -O0 nothing is inlined, so every shared inline function or template a
# TU uses shows up as a weak definition, and the linker may keep that
# ISA-encoded copy for baseline code too (a SIGILL on hosts without the
# ISA). Invoked as:
#   cmake -DCXX=... -DNM=... -DSTD=... -DSRC_DIR=... -DWORK_DIR=...
#         -DTUS="rel/path.cpp|flag flag|DEF=1 DEF=2;..." -P isa_isolation.cmake

foreach(var CXX NM STD SRC_DIR WORK_DIR TUS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "isa_isolation: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failed "")
foreach(entry IN LISTS TUS)
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 tu)
  list(GET fields 1 flags)
  list(GET fields 2 defines)
  separate_arguments(flags UNIX_COMMAND "${flags}")
  separate_arguments(defines UNIX_COMMAND "${defines}")
  list(TRANSFORM defines PREPEND "-D")
  string(MAKE_C_IDENTIFIER "${tu}" object)
  set(object "${WORK_DIR}/${object}.o")
  execute_process(
    COMMAND "${CXX}" ${STD} -O0 -I${SRC_DIR} ${defines} ${flags}
      -c "${SRC_DIR}/${tu}" -o "${object}"
    RESULT_VARIABLE compile_result
    ERROR_VARIABLE compile_output)
  if(NOT compile_result EQUAL 0)
    message(FATAL_ERROR "isa_isolation: ${tu} failed to compile:\n${compile_output}")
  endif()
  execute_process(
    COMMAND "${NM}" -C "${object}"
    RESULT_VARIABLE nm_result
    OUTPUT_VARIABLE symbols)
  if(NOT nm_result EQUAL 0)
    message(FATAL_ERROR "isa_isolation: nm failed on ${object}")
  endif()
  string(REGEX MATCHALL "[^\n]* [WV] [^\n]*" weak "${symbols}")
  if(weak)
    string(REPLACE ";" "\n  " weak "${weak}")
    string(APPEND failed "${tu} (${flags}):\n  ${weak}\n")
  else()
    message(STATUS "isa_isolation: ${tu} (${flags}): no weak symbols")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "isa_isolation: weak symbols in ISA-flagged TUs:\n${failed}")
endif()
