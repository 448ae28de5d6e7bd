# Runs BINARY, writes its standard output to OUTPUT and fails unless that
# output equals GOLDEN byte for byte.
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DOUTPUT=<file> -P compare_golden.cmake
get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
execute_process(COMMAND "${BINARY}" OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${OUTPUT}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUTPUT}")
  endif()
  message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}")
endif()
