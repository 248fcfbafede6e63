# Runs BIN with ARGS (words separated by '|') and echoes its stderr only
# when it exits 2, so a PASS_REGULAR_EXPRESSION on the diagnostic checks
# the exit code too.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(rc EQUAL 2)
  message("${err}")
else()
  message(FATAL_ERROR "expected exit 2, got '${rc}'")
endif()
