# Runs skyrise_check against a root that does not exist, a root that is a
# file, and a directory argument missing under a real root, and passes only
# if every run exits 2 and names the path on stderr instead of linting
# nothing and reporting zero violations.
#
#   cmake -DSKYRISE_CHECK=<path to skyrise_check> -DROOT=<repo root> \
#         -P reject_missing_root.cmake

# Runs skyrise_check with the remaining arguments; `path` must be named.
function(expect_rejected path)
  execute_process(
    COMMAND ${SKYRISE_CHECK} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(FIND "${err}" "${path}" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR
      "`skyrise_check ${shown}` was not rejected naming ${path} "
      "(exit ${rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

expect_rejected("${ROOT}/no/such/dir" --root "${ROOT}/no/such/dir")
expect_rejected("${ROOT}/CMakeLists.txt" --root "${ROOT}/CMakeLists.txt")
expect_rejected(srcc --root "${ROOT}" srcc)
message(STATUS "missing roots and directories rejected")
