# Regenerates a committed JSON record and byte-compares it with the file:
#   cmake -DBENCH=<binary> -DOUTPUT=<path> -DCOMMITTED=<path>
#         -P check_record.cmake
# Fails when the binary fails (exit != 0) or the two files differ. After a
# deliberate change, copy OUTPUT over COMMITTED and review the diff.
execute_process(COMMAND ${BENCH} --json ${OUTPUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json ${OUTPUT} failed: ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT}
                        ${COMMITTED}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  # Show which values moved, so a failure seen only in a CI log is readable.
  execute_process(COMMAND diff -u ${COMMITTED} ${OUTPUT})
  message(FATAL_ERROR "${OUTPUT} differs from the committed ${COMMITTED} "
                      "(diff above); copy it over only for a deliberate "
                      "model change")
endif()
