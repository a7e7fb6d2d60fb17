# Runs one command and fails unless it exits with EXPECT_RC and its
# output (stdout and stderr) matches the regex EXPECT_OUTPUT:
#
#   cmake -DCMD=<exe> "-DARGS=--steps abc" -DEXPECT_RC=2
#         -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${rc}, want ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
