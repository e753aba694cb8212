# CTest driver for the paper command table (bench/paper.cpp). An unknown
# command must exit 2 with the command list; `paper all --quick` must run
# every listed command to completion in a fresh score cache, printing each
# command's banner exactly once.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${PAPER} no_such_command
                OUTPUT_QUIET ERROR_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "paper no_such_command exited ${rc}, expected 2")
endif()

# Listing lines are "  <name>  <title>"; `all` is not a command of its own.
string(REPLACE "\n" ";" lines "${listing}")
set(titles "")
foreach(line IN LISTS lines)
  if(line MATCHES "^  ([a-z0-9_]+) +(.+)$" AND NOT CMAKE_MATCH_1 STREQUAL "all")
    list(APPEND titles "${CMAKE_MATCH_2}")
  endif()
endforeach()
list(LENGTH titles count)
if(count EQUAL 0 OR NOT listing MATCHES "\n  all ")
  message(FATAL_ERROR "paper printed no command list:\n${listing}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env DECAM_CACHE_DIR=${WORK_DIR}/cache
          ${PAPER} all --quick --no-manifest
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper all --quick exited ${rc}:\n${out}")
endif()

foreach(title IN LISTS titles)
  set(banner "=== ${title} ===\n")
  string(FIND "${out}" "${banner}" first)
  string(FIND "${out}" "${banner}" last REVERSE)
  if(first EQUAL -1 OR NOT first EQUAL last)
    message(FATAL_ERROR "banner '${title}' not printed exactly once")
  endif()
endforeach()

file(GLOB manifests ${WORK_DIR}/MANIFEST_*.json)
if(manifests)
  message(FATAL_ERROR "--no-manifest still wrote ${manifests}")
endif()
message(STATUS "paper smoke OK (${count} commands, one banner each)")
