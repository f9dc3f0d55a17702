# Runs BIN with no arguments and compares its stdout byte for byte
# with the committed GOLDEN file; the run's output is kept at OUT so a
# failure can be diffed by hand.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DOUT=<file> -P compare_stdout.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                        "compare with: diff ${GOLDEN} ${OUT}")
endif()
