# CTest driver for scanbench/scan_driver built against this tree: generate
# a tiny seeded corpus, then run one traced batch_defended second over it.
# Both commands must exit 0, and the run's JSON report (its last stdout
# line) must show no failed image, identical outcomes across passes and
# traced outcomes equal to the untraced ones.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${SCAN_DRIVER} generate --corpus mixed --seed 7
                        --tiny --out ${WORK_DIR}/corpus
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scan_driver generate exited ${rc}:\n${err}")
endif()

execute_process(COMMAND ${SCAN_DRIVER} run --workload batch_defended
                        --corpus ${WORK_DIR}/corpus --seconds 1 --trace 1
                        --work ${WORK_DIR}/work
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scan_driver run exited ${rc}:\n${err}")
endif()

string(STRIP "${out}" out)
string(REGEX REPLACE "^.*\n" "" report "${out}")
foreach(field "\"failed\": 0[,}]" "\"deterministic\": true"
              "\"traced_equal\": true")
  if(NOT report MATCHES "${field}")
    message(FATAL_ERROR "scan_driver report lacks ${field}:\n${report}")
  endif()
endforeach()
message(STATUS "scan_driver smoke OK")
