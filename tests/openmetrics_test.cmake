# CTest driver for the OpenMetrics exposition end to end: produce images
# with quickstart, scan them with `decamctl scan --metrics-out`, then run
# the strict grammar validator (openmetrics_check) over the real output.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

get_filename_component(EXAMPLES_DIR ${DECAMCTL} DIRECTORY)

# 1. Produce input images (quickstart writes scene/target/attack PPMs).
execute_process(COMMAND ${EXAMPLES_DIR}/quickstart 3
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed: ${rc}")
endif()

# 2. Scan with telemetry sinks armed. Exit 3 = attack flagged (expected for
# the quickstart attack image); anything else is a scan failure.
set(METRICS ${WORK_DIR}/metrics.txt)
execute_process(COMMAND ${DECAMCTL} scan
                        ${WORK_DIR}/quickstart_out/attack.ppm
                        --width 112 --height 112
                        --metrics-out ${METRICS}
                        --stacks-out ${WORK_DIR}/stacks.txt
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "decamctl scan should flag the attack, got: ${rc}")
endif()
if(NOT EXISTS ${METRICS})
  message(FATAL_ERROR "scan did not write ${METRICS}")
endif()

# 3. The exposition must pass the strict line-grammar validator.
execute_process(COMMAND ${CHECKER} ${METRICS} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "openmetrics_check rejected ${METRICS}: ${rc}")
endif()

# 4. The collapsed-stack profile export rides the same flag set; it must
# exist and every line must be "path;to;stage <self_us>".
if(NOT EXISTS ${WORK_DIR}/stacks.txt)
  message(FATAL_ERROR "scan did not write stacks.txt")
endif()
file(STRINGS ${WORK_DIR}/stacks.txt stack_lines)
list(LENGTH stack_lines stack_count)
if(stack_count EQUAL 0)
  message(FATAL_ERROR "stacks.txt is empty")
endif()
foreach(line IN LISTS stack_lines)
  if(NOT line MATCHES "^[^ ]+ [0-9]+$")
    message(FATAL_ERROR "bad collapsed-stack line: ${line}")
  endif()
endforeach()

# Every detector frame is the detector's own: no detector/ frame may sit
# directly under another one (a caller's timer must not open a second).
file(READ ${WORK_DIR}/stacks.txt stacks_text)
string(REGEX MATCH "(^|[;\n])detector/[^;\n ]*;detector/[^;\n ]*" nested
       "${stacks_text}")
if(nested)
  message(FATAL_ERROR "nested detector frames in stacks.txt: ${nested}")
endif()

# Decoding the input is its own stage, not `scan` self time.
string(REGEX MATCH "(^|[;\n])imaging/decode [0-9]+" decode_frame
       "${stacks_text}")
if(NOT decode_frame)
  message(FATAL_ERROR "no imaging/decode frame in stacks.txt")
endif()

# 5. A deliberately corrupted exposition must be rejected (the validator is
# only trustworthy if it can fail).
file(READ ${METRICS} metrics_text)
string(REPLACE "# EOF" "" broken_text "${metrics_text}")
file(WRITE ${WORK_DIR}/broken.txt "${broken_text}")
execute_process(COMMAND ${CHECKER} ${WORK_DIR}/broken.txt
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "openmetrics_check accepted a truncated exposition")
endif()

message(STATUS "openmetrics end-to-end OK")
