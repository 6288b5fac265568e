# cci_bench CLI checks, run by ctest (see CMakeLists.txt):
#   -DCCI_BENCH=<exe> -DFIGURES=a,b,c  `cci_bench --list` names exactly a, b, c
#   -DCCI_BENCH=<exe> -DREJECT=a,b,c   `cci_bench a b c` exits with code 2
#   -DCCI_BENCH=<exe> -DSAME=a,b|c,d   `cci_bench a b` and `cci_bench c d` exit 0
#                                      and print the same stdout
#   -DCCI_BENCH=<exe> -DHELP=a         `cci_bench a --help` exits 0 and prints
#                                      the usage with single `%` signs
#   -DCCI_BENCH=<exe> -DMETRICS=a      `CCI_METRICS=1 cci_bench a` exits 0 and
#                                      prints the end-of-run metrics table
#   ... -DMETRICS=a -DJOBS=m,n         `CCI_METRICS=1 cci_bench a --jobs m` and
#                                      `--jobs n` print the same stdout once
#                                      lines naming wall_us, host. rows and
#                                      [campaign] lines are dropped
#   -DCCI_BENCH=<exe> -DRESULTS=a -DRECORDS=path
#                                      `CCI_RESULTS=path cci_bench a` exits 0 and
#                                      writes JSON records for bench a to path
#   ... -DRESULTS=a -DRECORDS=path -DUNWRITABLE=1
#                                      `CCI_RESULTS=path cci_bench a` exits 2 and
#                                      names path before a prints anything
#   -DCCI_BENCH=<exe> -DTIMELINE=a -DTIMELINE_FILE=path -DEXPECT=rows
#                                      `cci_bench a --timeline path` exits 0 and
#                                      writes rows below the CSV header
#   ... -DEXPECT=no_campaign           the same exits 2 with a named error and
#                                      leaves an existing path as it was
#   ... -DEXPECT=warm_cache -DCACHE_DIR=dir
#                                      `cci_bench a --cache dir --timeline path`
#                                      into a fresh dir, then again against the
#                                      warm dir: both exit 0 and write the same
#                                      rows below the CSV header
if(DEFINED TIMELINE AND EXPECT STREQUAL "warm_cache")
  file(REMOVE_RECURSE "${CACHE_DIR}")
  foreach(run cold warm)
    file(REMOVE "${TIMELINE_FILE}.${run}")
    execute_process(COMMAND ${CCI_BENCH} ${TIMELINE} --cache ${CACHE_DIR}
                            --timeline ${TIMELINE_FILE}.${run}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "cci_bench ${TIMELINE} --cache --timeline (${run}): exit code ${rc}, "
                          "expected 0\n${err}")
    endif()
    file(STRINGS "${TIMELINE_FILE}.${run}" lines LIMIT_COUNT 2)
    list(LENGTH lines count)
    if(count LESS 2)
      message(FATAL_ERROR "cci_bench ${TIMELINE} --cache --timeline (${run}): no rows below "
                          "the header")
    endif()
  endforeach()
  file(READ "${TIMELINE_FILE}.cold" cold)
  file(READ "${TIMELINE_FILE}.warm" warm)
  if(NOT cold STREQUAL warm)
    message(FATAL_ERROR "cci_bench ${TIMELINE} --timeline: a warm cache wrote a different file")
  endif()
  return()
endif()

if(DEFINED TIMELINE)
  if(EXPECT STREQUAL "no_campaign")
    file(WRITE "${TIMELINE_FILE}" "keep\n")
  else()
    file(REMOVE "${TIMELINE_FILE}")
  endif()
  execute_process(COMMAND ${CCI_BENCH} ${TIMELINE} --timeline ${TIMELINE_FILE}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(EXPECT STREQUAL "no_campaign")
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "cci_bench ${TIMELINE} --timeline: exit code ${rc}, expected 2")
    endif()
    string(FIND "${err}" "runs no campaign" named)
    file(READ "${TIMELINE_FILE}" kept)
    if(named EQUAL -1 OR NOT kept STREQUAL "keep\n")
      message(FATAL_ERROR "cci_bench ${TIMELINE} --timeline: want a named error and the "
                          "file left as it was\nstderr: ${err}\nfile: ${kept}")
    endif()
    return()
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cci_bench ${TIMELINE} --timeline: exit code ${rc}, expected 0\n${err}")
  endif()
  file(STRINGS "${TIMELINE_FILE}" lines LIMIT_COUNT 2)
  list(LENGTH lines count)
  if(count LESS 2)
    message(FATAL_ERROR "cci_bench ${TIMELINE} --timeline: no rows below the header")
  endif()
  return()
endif()

if(DEFINED METRICS AND DEFINED JOBS)
  string(REPLACE "," ";" jobs "${JOBS}")
  set(i 0)
  foreach(j IN LISTS jobs)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env CCI_METRICS=1
                            ${CCI_BENCH} ${METRICS} --jobs ${j}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "CCI_METRICS=1 cci_bench ${METRICS} --jobs ${j}: exit code ${rc}")
    endif()
    # Host-side rows: solver wall times, host.* (thread caches, shard
    # clocks) and the campaign summary, which names the worker count.
    string(REGEX REPLACE "[^\n]*wall_us[^\n]*\n" "" out "${out}")
    string(REGEX REPLACE "\nhost\\.[^\n]*" "" out "${out}")
    string(REGEX REPLACE "\n\\[campaign\\][^\n]*" "" out "${out}")
    set(out${i} "${out}")
    math(EXPR i "${i} + 1")
  endforeach()
  if(NOT out0 STREQUAL out1)
    message(FATAL_ERROR "CCI_METRICS=1 cci_bench ${METRICS}: --jobs ${JOBS} print different "
                        "metrics\n${out0}\n---\n${out1}")
  endif()
  return()
endif()

if(DEFINED METRICS)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env CCI_METRICS=1 ${CCI_BENCH} ${METRICS}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "CCI_METRICS=1 cci_bench ${METRICS}: exit code ${rc}, expected 0")
  endif()
  string(FIND "${out}" "[cci-obs] end-of-run metrics (" at)
  string(FIND "${out}" "sim.engine.events_dispatched" events)
  if(at EQUAL -1 OR events EQUAL -1)
    message(FATAL_ERROR "CCI_METRICS=1 cci_bench ${METRICS}: no end-of-run metrics table\n${out}")
  endif()
  return()
endif()

if(DEFINED RESULTS AND UNWRITABLE)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env CCI_RESULTS=${RECORDS} ${CCI_BENCH} ${RESULTS}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "CCI_RESULTS=${RECORDS} cci_bench ${RESULTS}: exit code ${rc}, expected 2")
  endif()
  string(FIND "${err}" "${RECORDS}" named)
  if(named EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "CCI_RESULTS=${RECORDS} cci_bench ${RESULTS}: want the path named "
                        "before the figure runs\nstdout: ${out}\nstderr: ${err}")
  endif()
  return()
endif()

if(DEFINED RESULTS)
  file(REMOVE "${RECORDS}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env CCI_RESULTS=${RECORDS} ${CCI_BENCH} ${RESULTS}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "CCI_RESULTS=${RECORDS} cci_bench ${RESULTS}: exit code ${rc}, expected 0")
  endif()
  if(NOT EXISTS "${RECORDS}")
    message(FATAL_ERROR "CCI_RESULTS=${RECORDS} cci_bench ${RESULTS}: no records written")
  endif()
  file(READ "${RECORDS}" records)
  string(FIND "${records}" "\"metrics\"" metrics)
  if(metrics EQUAL -1)
    message(FATAL_ERROR "CCI_RESULTS records carry no metrics snapshot\n${records}")
  endif()
  return()
endif()
if(DEFINED HELP)
  execute_process(COMMAND ${CCI_BENCH} ${HELP} --help RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cci_bench ${HELP} --help: exit code ${rc}, expected 0")
  endif()
  string(FIND "${out}" "index % n == i" single)
  string(FIND "${out}" "%%" doubled)
  if(single EQUAL -1 OR NOT doubled EQUAL -1)
    message(FATAL_ERROR "cci_bench ${HELP} --help: usage should say `index % n == i`\n${out}")
  endif()
  return()
endif()

if(DEFINED SAME)
  string(REPLACE "|" ";" runs "${SAME}")
  set(i 0)
  foreach(run IN LISTS runs)
    string(REPLACE "," ";" args "${run}")
    # Each output in its own variable: a table may hold ';'.
    execute_process(COMMAND ${CCI_BENCH} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out${i})
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "cci_bench ${args}: exit code ${rc}, expected 0")
    endif()
    math(EXPR i "${i} + 1")
  endforeach()
  if(NOT out0 STREQUAL out1)
    message(FATAL_ERROR "cci_bench ${SAME}: outputs differ\n${out0}\n---\n${out1}")
  endif()
  return()
endif()

if(DEFINED REJECT)
  string(REPLACE "," ";" args "${REJECT}")
  execute_process(COMMAND ${CCI_BENCH} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "cci_bench ${args}: exit code ${rc}, expected 2")
  endif()
  return()
endif()

execute_process(COMMAND ${CCI_BENCH} --list RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cci_bench --list: exit code ${rc}")
endif()
string(REGEX REPLACE "\t[^\n]*" "" out "${out}")  # keep the name column
string(STRIP "${out}" out)
string(REPLACE "\n" ";" listed "${out}")
string(REPLACE "," ";" expected "${FIGURES}")
list(SORT listed)
list(SORT expected)
if(NOT listed STREQUAL expected)
  message(FATAL_ERROR "cci_bench --list mismatch\n  listed:   ${listed}\n  expected: ${expected}")
endif()
list(LENGTH listed count)
message(STATUS "cci_bench --list: ${count} figures")
