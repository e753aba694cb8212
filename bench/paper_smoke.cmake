# CTest driver for the paper command table (bench/paper.cpp). An unknown
# command must exit 2 with the command list; a malformed numeric flag must
# exit 2 before any dataset is built; a command that fails must exit 1 with
# one `paper:` line on stderr; `paper all --quick` must run every listed
# command to completion in a fresh score cache, printing each command's
# banner exactly once and the rows of the timed and scenario commands.
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

foreach(flags IN ITEMS "--n;0" "--n;abc" "--n;-3" "--seed;xyz"
                      "--threads;4x")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env DECAM_CACHE_DIR=${WORK_DIR}/bad_flag_cache
            ${PAPER} table2_scaling_whitebox --quick --no-manifest ${flags}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  list(JOIN flags " " shown)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "^usage: paper ")
    message(FATAL_ERROR "paper ... ${shown} exited ${rc}, expected 2 and "
                        "the usage line:\n${err}")
  endif()
  if(EXISTS ${WORK_DIR}/bad_flag_cache)
    message(FATAL_ERROR "paper ... ${shown} built a dataset before exiting")
  endif()
endforeach()

# A cache directory that is a regular file makes the command throw.
file(WRITE ${WORK_DIR}/not_a_directory "")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env DECAM_CACHE_DIR=${WORK_DIR}/not_a_directory
          ${PAPER} table2_scaling_whitebox --quick --no-manifest
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
string(REGEX MATCHALL "(^|\n)paper: " error_lines "${err}")
list(LENGTH error_lines error_count)
if(NOT rc EQUAL 1 OR NOT error_count EQUAL 1 OR
   NOT err MATCHES "(^|\n)paper: table2_scaling_whitebox: [^\n]+\n")
  message(FATAL_ERROR "failing command exited ${rc} with ${error_count} "
                      "'paper:' lines, expected 1 and 1:\n${err}")
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

# Table 7: the five method rows (paper ms, then ours: min ms and
# iterations) and the three context/* histogram rows with a sample count.
foreach(row IN ITEMS "scaling / MSE" "scaling / SSIM" "filtering / MSE"
                     "filtering / SSIM" "steganalysis / CSP")
  if(NOT out MATCHES "\n\\| ${row} +\\| [0-9]+ +\\| [0-9.]+ \\(x[0-9]+\\) +\\|\n")
    message(FATAL_ERROR "table7_runtime printed no '${row}' row")
  endif()
endforeach()
foreach(kernel IN ITEMS round_trip filter spectrum)
  if(NOT out MATCHES "\ncontext/${kernel} +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+\n")
    message(FATAL_ERROR "table7_runtime printed no context/${kernel} row")
  endif()
endforeach()

# attack_studio at --quick: the LeNet-5 and DAVE-2 rows, one per scaler.
foreach(model IN ITEMS "LeNet-5 \\(32x32\\)" "DAVE-2 driving \\(200x66\\)")
  foreach(algo IN ITEMS nearest bilinear bicubic)
    if(NOT out MATCHES "\n\\| ${model} +\\| ${algo} +\\| [0-9.]+ +\\|")
      message(FATAL_ERROR "attack_studio printed no ${model} ${algo} row")
    endif()
  endforeach()
endforeach()

# backdoor_e2e at --quick: 12 portraits x 4 identities + 25 poisoned.
if(NOT out MATCHES "\nsanitisation: quarantined [0-9]+/25 poisoned and [0-9]+/48 clean images\n")
  message(FATAL_ERROR "backdoor_e2e printed no sanitisation line")
endif()
foreach(model IN ITEMS "poisoned model" "sanitised model")
  if(NOT out MATCHES "\n${model} +[0-9.]+% +[0-9.]+%\n")
    message(FATAL_ERROR "backdoor_e2e printed no '${model}' row")
  endif()
endforeach()

file(GLOB manifests ${WORK_DIR}/MANIFEST_*.json)
if(manifests)
  message(FATAL_ERROR "--no-manifest still wrote ${manifests}")
endif()
message(STATUS "paper smoke OK (${count} commands, one banner each)")
