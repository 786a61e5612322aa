# One command-line invocation that must be refused: by default a usage
# error, exit code 2 and an INVALID_ARGUMENT message on stderr. Registered
# with ctest by tests/CMakeLists.txt (pmbe_cli_reject):
#
#   cmake -DCLI=<binary> "-DARGS=<args>" -DWORKDIR=<dir>
#         [-DEXPECT_RC=<code>] ["-DEXPECT_ERR=<regex>"] -P cli_rejects.cmake
#
# ARGS is one space-separated string; the word EDGES in it is replaced by
# the path of a 3-edge edge list written into WORKDIR. EXPECT_RC and
# EXPECT_ERR (the exit code and a stderr pattern) default to 2 and
# INVALID_ARGUMENT.

if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 2)
endif()
if(NOT DEFINED EXPECT_ERR)
  set(EXPECT_ERR "INVALID_ARGUMENT")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(edges "${WORKDIR}/three_edges.txt")
file(WRITE "${edges}" "0 0\n1 1\n1 2\n")
separate_arguments(args UNIX_COMMAND "${ARGS}")
list(TRANSFORM args REPLACE "EDGES" "${edges}")

execute_process(
  COMMAND "${CLI}" ${args}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT rc EQUAL EXPECT_RC OR NOT err MATCHES "${EXPECT_ERR}")
  list(JOIN args " " shown)
  message(FATAL_ERROR "expected exit ${EXPECT_RC} with '${EXPECT_ERR}' from\n"
          "  ${CLI} ${shown}\ngot exit '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "rejected: ${err}")
