# Drives gencheck with malformed arguments and requires each run to
# exit 2 (usage error) before any subject is checked; the well-formed
# runs must exit 0, so the rejections are the arguments' doing.
#
#   cmake -DTOOL=<gencheck> -P <this file>

# Each case is "expected exit code|arg|arg...". CMake drops empty list
# elements, so an empty argument cannot be expressed here.
set(cases
    "0|--list-checks"
    "0|--seed|7|--list-checks"
    "0|--seed|18446744073709551615|--list-checks"
    "2|--seed|-1"
    "2|--seed|+1"
    "2|--seed| 1"
    "2|--seed|1 "
    "2|--seed|7x"
    "2|--seed|18446744073709551616"
    "2|--seed|99999999999999999999999"
    "2|--seed|abc"
    "2|--tier|nosuch"
    "2|--profile|nosuch"
    "2|--bogus")

set(failed 0)
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    list(POP_FRONT args expected)
    execute_process(COMMAND "${TOOL}" ${args}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL expected)
        message(SEND_ERROR
            "gencheck ${args}: exit ${rc}, expected ${expected}")
        set(failed 1)
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "gencheck argument checks failed")
endif()
