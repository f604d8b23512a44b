# Runs PROG with ARGS and fails unless its exit code is 0 and its stdout
# equals the GOLDEN file byte for byte. On a mismatch the actual output
# is left as <golden name>.actual in the working directory.
#
#   cmake -DPROG=<exe> "-DARGS=<args>" -DGOLDEN=<file> -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROG} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${actual}")
  message(FATAL_ERROR "stdout of ${PROG} ${ARGS} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()
