# Runs BIN and fails unless its standard output equals the file EXPECTED
# byte for byte. On a mismatch the output is written next to the build's
# copy as ACTUAL so the two can be diffed.
#
#   cmake -DBIN=<program> -DEXPECTED=<file> -DACTUAL=<file> -P compare_output.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${EXPECTED} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "${BIN} printed something else than ${EXPECTED}; "
                      "its output is in ${ACTUAL}")
endif()
