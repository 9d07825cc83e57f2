# Generated-code freshness check: renders every kernel translation unit
# with gen_kernels into a scratch directory and byte-compares the result
# with the committed src/kernels/gen/. Fails on a hand edit, on a
# generator change without regeneration, and on added or missing files.
#
# Usage: cmake -DGEN=<gen_kernels binary> -DCOMMITTED=<src/kernels/gen>
#              -DSCRATCH=<empty dir> -P check_generated_kernels.cmake

foreach(var GEN COMMITTED SCRATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_generated_kernels: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${SCRATCH}")
file(MAKE_DIRECTORY "${SCRATCH}")
execute_process(COMMAND "${GEN}" "${SCRATCH}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen_kernels failed with exit code ${rc}")
endif()

file(GLOB fresh RELATIVE "${SCRATCH}" "${SCRATCH}/*")
file(GLOB committed RELATIVE "${COMMITTED}" "${COMMITTED}/*")
list(SORT fresh)
list(SORT committed)
if(NOT fresh STREQUAL committed)
  message(FATAL_ERROR "generated file set differs from ${COMMITTED}:\n"
                      "  generated: ${fresh}\n  committed: ${committed}")
endif()

set(stale "")
foreach(name IN LISTS fresh)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${SCRATCH}/${name}"
                          "${COMMITTED}/${name}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND stale "${name}")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "stale generated kernels (regenerate with gen_kernels src/kernels/gen): "
                      "${stale}")
endif()
list(LENGTH fresh n)
message(STATUS "${n} generated files match ${COMMITTED}")
