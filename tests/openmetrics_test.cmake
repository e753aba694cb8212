# CTest script for the telemetry sinks end to end: produce images with
# quickstart, scan them with `decamctl scan --metrics-out`, run the strict
# grammar validator (openmetrics_check) over the real output, then arm the
# trace and profile sinks from the environment alone.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

get_filename_component(EXAMPLES_DIR ${DECAMCTL} DIRECTORY)

# 1. Produce input images (quickstart writes scene/target/attack PPMs).
execute_process(COMMAND ${EXAMPLES_DIR}/quickstart 3
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed: ${rc}")
endif()

# 2. Scan with telemetry sinks armed: the metrics by flag, the profile by
# DECAM_PROFILE_FILE. Exit 3 = attack flagged (expected for the quickstart
# attack image); anything else is a scan failure.
set(METRICS ${WORK_DIR}/metrics.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E env
                        DECAM_PROFILE_FILE=${WORK_DIR}/stacks.txt
                        ${DECAMCTL} scan
                        ${WORK_DIR}/quickstart_out/attack.ppm
                        --width 112 --height 112
                        --metrics-out ${METRICS}
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

# 4. The collapsed-stack profile written at exit must exist and every line
# must be "path;to;stage <self_us>".
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

# 6. The environment alone arms the trace and profile sinks: a file named
# for each turns it on and the exit flush writes it. Over pool lanes, the
# profile keeps one tree under the caller's `scan` stage.
set(TRACE ${WORK_DIR}/env_trace.json)
set(PROFILE ${WORK_DIR}/env_stacks.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E env
                        DECAM_TRACE_FILE=${TRACE}
                        DECAM_PROFILE_FILE=${PROFILE}
                        ${DECAMCTL} scan --threads 4
                        --width 112 --height 112
                        ${WORK_DIR}/quickstart_out/scene.ppm
                        ${WORK_DIR}/quickstart_out/attack.ppm
                        ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "env-armed scan should flag the attack, got: ${rc}")
endif()
foreach(sink_file ${TRACE} ${PROFILE})
  if(NOT EXISTS ${sink_file})
    message(FATAL_ERROR "the exit flush did not write ${sink_file}")
  endif()
endforeach()
file(READ ${TRACE} trace_text)
if(NOT trace_text MATCHES "\"name\":\"scan\"")
  message(FATAL_ERROR "no scan event in ${TRACE}")
endif()
if(NOT trace_text MATCHES "decam-worker-")
  message(FATAL_ERROR "no decam-worker- thread name in ${TRACE}")
endif()
file(STRINGS ${PROFILE} env_stack_lines)
list(LENGTH env_stack_lines env_stack_count)
if(env_stack_count EQUAL 0)
  message(FATAL_ERROR "${PROFILE} is empty")
endif()
foreach(line IN LISTS env_stack_lines)
  if(NOT line MATCHES "^scan(;[^ ]+)? [0-9]+$")
    message(FATAL_ERROR "stack line outside the scan stage: ${line}")
  endif()
endforeach()

# 7. A trace file that cannot be written costs one stderr line naming the
# path, and the scan's exit code stays its own.
set(BAD_TRACE ${WORK_DIR}/no_such_dir/trace.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E env DECAM_TRACE_FILE=${BAD_TRACE}
                        ${DECAMCTL} scan ${WORK_DIR}/quickstart_out/attack.ppm
                        --width 112 --height 112
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE bad_stderr)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "an unwritable trace changed the exit code: ${rc}")
endif()
string(REPLACE "\n" ";" stderr_lines "${bad_stderr}")
set(bad_count 0)
foreach(line IN LISTS stderr_lines)
  string(FIND "${line}" "${BAD_TRACE}" at)
  if(NOT at EQUAL -1)
    math(EXPR bad_count "${bad_count} + 1")
  endif()
endforeach()
if(NOT bad_count EQUAL 1)
  message(FATAL_ERROR
          "expected one stderr line naming ${BAD_TRACE}, got: ${bad_stderr}")
endif()

message(STATUS "openmetrics end-to-end OK")
