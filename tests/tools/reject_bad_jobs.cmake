# Runs skyrise_check with malformed `--jobs` values, each followed by
# `--list-rules`, and passes only if every run prints the usage text and
# exits 2 instead of listing the rules.
#
#   cmake -DSKYRISE_CHECK=<path to skyrise_check> -P reject_bad_jobs.cmake

foreach(bad -1 abc 3x)
  execute_process(
    COMMAND ${SKYRISE_CHECK} --jobs "${bad}" --list-rules
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: skyrise_check")
    message(FATAL_ERROR
      "--jobs '${bad}' was accepted (exit ${rc})\nstdout:\n${out}\n"
      "stderr:\n${err}")
  endif()
endforeach()
message(STATUS "malformed --jobs values rejected with usage")
