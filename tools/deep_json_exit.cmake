# Runs a JSON-reading tool on a 2M-deep nested array and requires a clean
# parse-error exit (1), not a crash.
#   cmake -DTOOL=<binary> -DARGS=<flags before the file> -DFILE=<file to write>
#         -P deep_json_exit.cmake
string(REPEAT "[" 2000000 open)
string(REPEAT "]" 2000000 close)
file(WRITE "${FILE}" "${open}${close}")
execute_process(COMMAND "${TOOL}" ${ARGS} "${FILE}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(REMOVE "${FILE}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${TOOL} exited with '${rc}' on a 2M-deep JSON array, want 1\n${err}")
endif()
