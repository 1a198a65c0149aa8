# Runs a command and passes only if it exits with exactly EXPECTED_EXIT and,
# when EXPECTED_STDERR / EXPECTED_STDOUT are set, its stderr / stdout match
# those regexes. ctest's own WILL_FAIL accepts any failure, a crash
# included, and PASS_REGULAR_EXPRESSION ignores the status; this pins both.
#
#   cmake -DEXPECTED_EXIT=2 [-DEXPECTED_STDERR=<regex>]
#         [-DEXPECTED_STDOUT=<regex>] -P expect_exit.cmake
#         -- <program> [args...]
set(cmd "")
set(in_cmd OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd ON)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECTED_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECTED_STDERR AND NOT err MATCHES "${EXPECTED_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECTED_STDERR}':\n${err}")
endif()
if(DEFINED EXPECTED_STDOUT AND NOT out MATCHES "${EXPECTED_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECTED_STDOUT}':\n${out}")
endif()
