# Runs one command and fails unless it exits with EXPECT_RC and its
# output (stdout and stderr) matches the regex EXPECT_OUTPUT.  With
# ONLY_LINES set, every output line must also match that regex:
#
#   cmake -DCMD=<exe> "-DARGS=--steps abc" -DEXPECT_RC=2
#         -DEXPECT_OUTPUT=<regex> [-DONLY_LINES=<regex>] -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${rc}, want ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
if(DEFINED ONLY_LINES)
  string(REPLACE "\n" ";" lines "${out}${err}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "${ONLY_LINES}")
      message(FATAL_ERROR "${CMD} ${ARGS}: unexpected line '${line}'\n${out}${err}")
    endif()
  endforeach()
endif()
