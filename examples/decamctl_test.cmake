# CTest driver exercising the decamctl binary end to end:
#   quickstart writes scene/target PPMs -> craft -> scan both images.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

get_filename_component(EXAMPLES_DIR ${DECAMCTL} DIRECTORY)

# 1. Produce input images with the quickstart example (writes PPMs).
execute_process(COMMAND ${EXAMPLES_DIR}/quickstart 3
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed: ${rc}")
endif()

set(SCENE ${WORK_DIR}/quickstart_out/scene.ppm)
set(TARGET ${WORK_DIR}/quickstart_out/target.ppm)

# 2. Craft an attack from the CLI.
execute_process(COMMAND ${DECAMCTL} craft ${SCENE} ${TARGET}
                        ${WORK_DIR}/attack.ppm --width 112 --height 112
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl craft failed: ${rc}")
endif()

# 3. Calibrate on the benign scene (tiny profile, generous percentile).
execute_process(COMMAND ${DECAMCTL} calibrate ${SCENE}
                        --out ${WORK_DIR}/profile.calib
                        --width 112 --height 112 --percentile 40 --margin 8
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl calibrate failed: ${rc}")
endif()

# 4. Scan: the attack must be flagged (exit 3), the scene accepted (exit 0).
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "decamctl scan should flag the attack, got: ${rc}")
endif()

# Scan a DIFFERENT benign-like image than the calibration sample (a single
# sample sits exactly on its own percentile threshold; --margin widens the
# thresholds away from the benign side for such tiny calibration sets).
execute_process(COMMAND ${DECAMCTL} scan
                        ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl scan rejected a benign-like image: ${rc}")
endif()

# Short-circuit voting must not change the verdict or the exit code, for
# the attack (exit 3) and the benign-like image (exit 0) alike.
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib --short-circuit
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "short-circuit scan should flag the attack, got: ${rc}")
endif()
execute_process(COMMAND ${DECAMCTL} scan
                        ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib --short-circuit
                        --stats
                OUTPUT_VARIABLE sc_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "short-circuit scan rejected a benign-like image: ${rc}")
endif()
if(NOT sc_out MATCHES "battery/skip_")
  message(FATAL_ERROR
          "--stats should list the battery/skip_* counters: ${sc_out}")
endif()

# Multi-input scan: attack + benign together must still exit 3 (an attack
# anywhere in the batch dominates), with one report line per file.
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib --threads 2
                OUTPUT_VARIABLE multi_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "multi-input scan should flag the attack, got: ${rc}")
endif()
string(REGEX MATCHALL "\n" multi_lines "${multi_out}")
list(LENGTH multi_lines multi_line_count)
if(NOT multi_line_count EQUAL 2)
  message(FATAL_ERROR
          "multi-input scan should print one line per file: ${multi_out}")
endif()

# A missing file in the batch is a load failure: exit 1 beats detection.
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        ${WORK_DIR}/no_such_image.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "scan with a missing file should exit 1, got: ${rc}")
endif()

# A directory input expands to its image files (quickstart_out holds the
# benign scene, target, and round-trip PPMs plus the crafted attack copy).
# The 28x28 geometry keeps even the 112x112 artifacts scannable (the
# scaling detector requires inputs larger than the CNN geometry).
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/quickstart_out
                        --width 28 --height 28
                        --profile ${WORK_DIR}/profile.calib --json
                RESULT_VARIABLE rc)
if(rc EQUAL 1 OR rc EQUAL 2)
  message(FATAL_ERROR "directory scan failed: ${rc}")
endif()

# A short-circuit scan still times every member it scores.
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        --width 112 --height 112
                        --profile ${WORK_DIR}/profile.calib
                        --short-circuit --json
                OUTPUT_VARIABLE sc_json RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "short-circuit --json scan should flag: ${rc}")
endif()
string(REGEX MATCHALL "\"latency_ms\": [0-9.]+" sc_latencies "${sc_json}")
string(REGEX MATCHALL "\"score\": null" sc_skipped "${sc_json}")
list(LENGTH sc_latencies sc_scored_count)
list(LENGTH sc_skipped sc_skipped_count)
math(EXPR sc_member_count "${sc_scored_count} + ${sc_skipped_count}")
if(sc_scored_count EQUAL 0 OR NOT sc_member_count EQUAL 3)
  message(FATAL_ERROR "every scored member needs a latency_ms: ${sc_json}")
endif()
foreach(latency IN LISTS sc_latencies)
  if(latency MATCHES ": 0\\.000$")
    message(FATAL_ERROR "short-circuit member reports zero latency: "
                        "${sc_json}")
  endif()
endforeach()

# calibrate --defense fits the thresholds on the defended scores, and a
# defended scan accepts that profile.
execute_process(COMMAND ${DECAMCTL} calibrate ${SCENE}
                        --out ${WORK_DIR}/profile_median3.calib
                        --width 112 --height 112 --percentile 40 --margin 8
                        --defense median3
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl calibrate --defense failed: ${rc}")
endif()
file(READ ${WORK_DIR}/profile.calib plain_profile)
file(READ ${WORK_DIR}/profile_median3.calib defended_profile)
if(plain_profile STREQUAL defended_profile)
  message(FATAL_ERROR "calibrate --defense median3 ignored the defense")
endif()
execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/attack.ppm
                        --width 112 --height 112 --defense median3
                        --profile ${WORK_DIR}/profile_median3.calib
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
  message(FATAL_ERROR "defended scan with a defended profile failed: ${rc}")
endif()

# Images not larger than the model input on both sides can be neither
# scanned nor calibrated on: exit 1, with both sizes named and no source
# location. With --json the scan also reports the error on stdout.
string(REPEAT "A" 64 tiny_pixels)
file(WRITE ${WORK_DIR}/tiny.pgm "P5\n8 8\n255\n${tiny_pixels}")
string(REPEAT "A" 500 thin_pixels)
file(WRITE ${WORK_DIR}/thin.pgm "P5\n1 500\n255\n${thin_pixels}")
foreach(small tiny:8x8 thin:1x500)
  string(REPLACE ":" ";" small "${small}")
  list(GET small 0 small_name)
  list(GET small 1 small_size)
  foreach(small_command "scan" "calibrate;--out;${WORK_DIR}/small.calib")
    list(GET small_command 0 small_verb)
    execute_process(COMMAND ${DECAMCTL} ${small_command}
                            ${WORK_DIR}/${small_name}.pgm
                    OUTPUT_QUIET ERROR_VARIABLE small_err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR
              "${small_verb} of a ${small_size} image should exit 1: ${rc}")
    endif()
    if(NOT small_err MATCHES "${small_size}" OR
       NOT small_err MATCHES "224x224" OR small_err MATCHES "\\.cpp:")
      message(FATAL_ERROR
              "bad ${small_verb} message for a ${small_size} image: "
              "${small_err}")
    endif()
  endforeach()
  execute_process(COMMAND ${DECAMCTL} scan ${WORK_DIR}/${small_name}.pgm --json
                  OUTPUT_VARIABLE small_json ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR
     NOT small_json MATCHES "\"error\": \"[^\"]*${small_size}")
    message(FATAL_ERROR "scan --json of a ${small_size} image should exit 1 "
                        "with the error on stdout, got ${rc}: ${small_json}")
  endif()
endforeach()

# Numeric flags parse the whole token and are range-checked before any
# image is read: usage and exit 2 (the missing calibration image would
# otherwise be a load failure, exit 1).
foreach(bad_args
        "scan;${SCENE};--threads;4x"
        "scan;${SCENE};--width;abc"
        "calibrate;${WORK_DIR}/no_such_image.ppm;--out;${WORK_DIR}/x.calib;--margin;0.5")
  execute_process(COMMAND ${DECAMCTL} ${bad_args}
                  OUTPUT_QUIET ERROR_VARIABLE bad_err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT bad_err MATCHES "usage:")
    list(JOIN bad_args " " bad_command)
    message(FATAL_ERROR "decamctl ${bad_command} should print usage and "
                        "exit 2, got ${rc}: ${bad_err}")
  endif()
endforeach()

# Control bytes in a path are escaped in the JSON report (checked on the
# bytes: CMake's own JSON parser accepts raw control characters).
string(ASCII 1 control_byte)
set(CONTROL_NAME "${WORK_DIR}/scene${control_byte}copy.ppm")
file(COPY_FILE ${SCENE} "${CONTROL_NAME}")
execute_process(COMMAND ${DECAMCTL} scan "${CONTROL_NAME}" --json
                        --width 112 --height 112
                OUTPUT_VARIABLE control_json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
  message(FATAL_ERROR "scan of a control-byte path failed: ${rc}")
endif()
string(FIND "${control_json}" "\\u0001" escaped_at)
string(FIND "${control_json}" "${control_byte}" raw_at)
if(escaped_at EQUAL -1 OR NOT raw_at EQUAL -1)
  message(FATAL_ERROR "control byte not escaped as \\u0001: ${control_json}")
endif()

# 5. Spectrum + downscale commands produce output files.
execute_process(COMMAND ${DECAMCTL} spectrum ${WORK_DIR}/attack.ppm
                        ${WORK_DIR}/spec.pgm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl spectrum failed: ${rc}")
endif()
execute_process(COMMAND ${DECAMCTL} downscale ${WORK_DIR}/attack.ppm
                        ${WORK_DIR}/view.ppm --width 112 --height 112
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decamctl downscale failed: ${rc}")
endif()
foreach(artifact spec.pgm view.ppm attack.ppm profile.calib)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
message(STATUS "decamctl end-to-end OK")
