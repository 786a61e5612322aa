# One command-line invocation that must be refused as a usage error: exit
# code 2 and an INVALID_ARGUMENT message on stderr. Registered with ctest
# by tests/CMakeLists.txt (pmbe_cli_reject):
#
#   cmake -DCLI=<binary> "-DARGS=<args>" -DWORKDIR=<dir> -P cli_rejects.cmake
#
# ARGS is one space-separated string; the word EDGES in it is replaced by
# the path of a 3-edge edge list written into WORKDIR.

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
if(NOT rc EQUAL 2 OR NOT err MATCHES "INVALID_ARGUMENT")
  list(JOIN args " " shown)
  message(FATAL_ERROR "expected exit 2 with INVALID_ARGUMENT from\n"
          "  ${CLI} ${shown}\ngot exit '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "rejected: ${err}")
