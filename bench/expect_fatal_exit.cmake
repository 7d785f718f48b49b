# Run BINARY with the env knob KNOB set to the invalid VALUE and
# require a clean fatal: exit status 1 and the knob's name on stderr.
#
#   cmake -DBINARY=<path> -DKNOB=<name> -DVALUE=<bad value> \
#         -P expect_fatal_exit.cmake
# The knob goes into this script's environment, not through
# `cmake -E env`, which reports a child killed by a signal as status 1.
set(ENV{${KNOB}} "${VALUE}")
execute_process(
    COMMAND "${BINARY}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if (NOT status STREQUAL "1")
    message(FATAL_ERROR
        "${BINARY} with ${KNOB}=${VALUE} exited '${status}', expected 1; "
        "stderr:\n${err}")
endif()
string(FIND "${err}" "${KNOB}" at)
if (at EQUAL -1)
    message(FATAL_ERROR
        "stderr of ${BINARY} does not name ${KNOB}:\n${err}")
endif()
