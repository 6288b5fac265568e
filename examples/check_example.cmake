# Runs one example for ctest (see CMakeLists.txt): -DEXAMPLE=<exe> must
# exit 0 and write nothing to stderr.
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE}: exit code ${rc}\n${err}")
endif()
if(NOT err STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE}: wrote to stderr:\n${err}")
endif()
