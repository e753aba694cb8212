# CTest driver for the battery's thread-count determinism contract
# (DESIGN.md §8): the same quick table8_ensemble experiment run on one
# worker thread and on four must produce byte-identical cache TSVs — the
# per-image score rows, serialised at %.17g, straight from disk. A single
# ULP of drift anywhere in the fused metric pass or the parallel fan-out
# shows up as a file diff here.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/threads1 ${WORK_DIR}/threads4)

foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            DECAM_CACHE_DIR=${WORK_DIR}/threads${threads}
            ${PAPER} table8_ensemble --quick --threads ${threads}
            --no-manifest
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "table8_ensemble --threads ${threads} failed: ${rc}")
  endif()
endforeach()

file(GLOB tsv1 ${WORK_DIR}/threads1/experiment_*.tsv)
file(GLOB tsv4 ${WORK_DIR}/threads4/experiment_*.tsv)
list(LENGTH tsv1 count1)
list(LENGTH tsv4 count4)
if(NOT count1 EQUAL 1 OR NOT count4 EQUAL 1)
  message(FATAL_ERROR
          "expected one cache TSV per run, got ${count1} and ${count4}")
endif()

# Same config -> same cache filename; different names mean the cache key
# itself became thread-dependent, which is its own determinism failure.
get_filename_component(name1 ${tsv1} NAME)
get_filename_component(name4 ${tsv4} NAME)
if(NOT name1 STREQUAL name4)
  message(FATAL_ERROR "cache keys differ across thread counts: "
                      "${name1} vs ${name4}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${tsv1} ${tsv4}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "per-image scores differ between --threads 1 and "
                      "--threads 4: ${tsv1} vs ${tsv4}")
endif()
message(STATUS "battery determinism OK (${name1} byte-identical at 1 and 4 "
               "threads)")

# Defense-wrapped scan determinism (DESIGN.md §13): the same images scored
# through `decamctl scan --defense` on 1 worker thread and on 4 must report
# bit-identical scores (%.17g in the JSON). Only the measured latencies may
# differ, so those fields are scrubbed before the comparison.
get_filename_component(EXAMPLES_DIR ${DECAMCTL} DIRECTORY)
execute_process(COMMAND ${EXAMPLES_DIR}/quickstart 3
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed: ${rc}")
endif()

foreach(threads 1 4)
  execute_process(
    COMMAND ${DECAMCTL} scan
            ${WORK_DIR}/quickstart_out/scene.ppm
            ${WORK_DIR}/quickstart_out/attack.ppm
            ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
            --width 112 --height 112 --defense squeeze4+jpeg75
            --json --threads ${threads}
    OUTPUT_VARIABLE scan_out ERROR_QUIET RESULT_VARIABLE rc)
  # 0 = all benign, 3 = attack flagged; both are successful scans.
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
    message(FATAL_ERROR
            "defended scan --threads ${threads} failed: ${rc}")
  endif()
  string(REGEX REPLACE "\"(total_)?latency_ms\": [0-9.eE+-]+" "latency"
         scan_scrubbed "${scan_out}")
  set(scan_${threads} "${scan_scrubbed}")
endforeach()

if(NOT scan_1 STREQUAL scan_4)
  message(FATAL_ERROR "defended scan scores differ between --threads 1 "
                      "and --threads 4:\n${scan_1}\n--- vs ---\n${scan_4}")
endif()
if(NOT scan_1 MATCHES "squeeze4\\+jpeg75>scaling/mse")
  message(FATAL_ERROR "defended scan did not report defended detector "
                      "names:\n${scan_1}")
endif()
message(STATUS "defended scan determinism OK (squeeze4+jpeg75, "
               "bit-identical JSON scores at 1 and 4 threads)")
