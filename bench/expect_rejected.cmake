# ctest helper: runs BINARY with the argument list ARGS under the
# environment assignment ENV (NAME=VALUE; may be empty), and passes only
# when the run exits with status 2 and its stderr contains EXPECT, the
# message naming the malformed setting. Usage:
#   cmake -DBINARY=path -DENV=CBWT_SCALE=abc "-DEXPECT=CBWT_SCALE=" \
#         -P expect_rejected.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${BINARY} ${ARGS}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  TIMEOUT 120)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${stderr}")
endif()
string(FIND "${stderr}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not contain '${EXPECT}':\n${stderr}")
endif()
