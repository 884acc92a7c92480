# Runs `${CMD} ${ARGS} ${INPUT}` and passes only when it exits 2 with the
# usage text on stderr: the CLI contract for input it rejects.
execute_process(COMMAND ${CMD} ${ARGS} ${INPUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: mpdash_sim")
  message(FATAL_ERROR "expected usage on stderr, got:\n${err}")
endif()
