# Drives logreplay_tool with malformed arguments and requires each run
# to exit 2 (usage error); well-formed runs on the same log must exit
# 0, so the rejections are the arguments' doing.
#
#   cmake -DTOOL=<logreplay_tool> -DWORK=<work dir> -P <this file>

file(MAKE_DIRECTORY "${WORK}")
set(log "${WORK}/live.gclogb")

# Each case is "expected exit code|arg|arg...". CMake drops empty list
# elements, so an empty argument cannot be expressed here.
set(cases
    "0|live|3|${log}"
    "0|replay|${log}"
    "0|replay|${log}|64"
    "0|replay|${log}|0.5"
    "2|replay|${log}|abc"
    "2|replay|${log}|-5"
    "2|replay|${log}|0"
    "2|replay|${log}|1e400"
    "2|replay|${log}|nan"
    "2|replay|${log}|inf"
    "2|replay|${log}|64kb"
    "2|replay|${log}|0.0001"
    "2|replay|${log}|1e30"
    "2|replay|${log}|--bogus"
    "2|--bogus|replay|${log}|64"
    "2|replay|${log}|64|--bogus"
    "2|live|abc|${WORK}/bad.gclogb"
    "2|live|-1|${WORK}/bad.gclogb"
    "2|live|+1|${WORK}/bad.gclogb"
    "2|live|7x|${WORK}/bad.gclogb"
    "2|live|18446744073709551616|${WORK}/bad.gclogb")

set(failed 0)
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    list(POP_FRONT args expected)
    execute_process(COMMAND "${TOOL}" ${args}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL expected)
        message(SEND_ERROR
            "logreplay_tool ${args}: exit ${rc}, expected ${expected}")
        set(failed 1)
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "logreplay_tool argument checks failed")
endif()
