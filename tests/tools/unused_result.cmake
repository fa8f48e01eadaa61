# Compiles tests/tools/fixtures/unused_result.cc with -Werror=unused-result
# and passes only if the compiler reports exactly one unused-result error on
# each line marked `expect-unused-result`, and no other error. This pins the
# guarantee that a Status or Result<T> dropped by any call shape (free
# function, member via -> and ., static, virtual, template) fails the build
# through the class-level [[nodiscard]] alone.
#
#   cmake -DCXX=<c++ compiler> -DSRC_DIR=<repo>/src -DFIXTURE=<fixture.cc> \
#         -P unused_result.cmake

execute_process(
  COMMAND ${CXX} -std=c++20 -I ${SRC_DIR} -Werror=unused-result -fsyntax-only
          ${FIXTURE}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

# Line numbers of the marked lines. Semicolons would split CMake list items,
# so they are replaced before the text is cut into lines.
file(READ ${FIXTURE} text)
string(REPLACE ";" "," text "${text}")
string(REGEX MATCHALL "[^\n]*\n" rows "${text}")
set(expected "")
set(lineno 0)
foreach(row IN LISTS rows)
  math(EXPR lineno "${lineno} + 1")
  if(row MATCHES "// expect-unused-result[ \t]*\n$")
    list(APPEND expected ${lineno})
  endif()
endforeach()
if(NOT expected)
  message(FATAL_ERROR "${FIXTURE} marks no expect-unused-result line")
endif()

# Line numbers of the reported errors, in the order the compiler emits them
# (source order).
get_filename_component(fixture_name ${FIXTURE} NAME)
string(REPLACE ";" "," err "${err}")
string(REGEX MATCHALL "[^\n]*: error: [^\n]*" errors "${err}")
set(reported "")
foreach(e IN LISTS errors)
  if(e MATCHES "${fixture_name}:([0-9]+):[0-9]+: error: .*unused-result")
    list(APPEND reported ${CMAKE_MATCH_1})
  else()
    message(FATAL_ERROR "unexpected compiler error:\n${e}")
  endif()
endforeach()

if(NOT rc OR NOT reported STREQUAL expected)
  message(FATAL_ERROR
    "expected one unused-result error on lines [${expected}], "
    "got [${reported}] (exit ${rc}):\n${err}")
endif()
list(LENGTH expected count)
message(STATUS "unused-result rejected on all ${count} marked lines")
