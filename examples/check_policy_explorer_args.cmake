# Drives policy_explorer with malformed arguments and requires each run
# to exit 2 (usage error); range errors the library reports itself
# keep its fatal exit 1, and well-formed runs must exit 0, so the
# rejections are the arguments' doing.
#
#   cmake -DTOOL=<policy_explorer> -P <this file>

# Each case is "expected exit code|arg|arg...". CMake drops empty list
# elements, so an empty argument cannot be expressed here.
set(cases
    "0|gzip"
    "0|gcc|0.37|40|20|5"
    "2|gzip|abc"
    "2|gzip|0"
    "2|gzip|-0.5"
    "2|gzip|1e30"
    "2|gzip|inf"
    "2|gzip|nan"
    "2|gzip|0.5x"
    "2|gzip| 0.5"
    "2|gzip|+0.5"
    "2|gzip|0.5| 45|10"
    "2|gzip|0.5|45| 10"
    "2|gzip|0.5|45|-10"
    "2|gzip|0.5|nan|10"
    "2|gzip|0.5|45|nan"
    "2|gzip|0.5|nan|nan|1"
    "2|gzip|0.5|45|10|-1"
    "2|gzip|0.5|45|10|+1"
    "2|gzip|0.5|45|10|2x"
    "2|gzip|0.5|45|10|4294967296"
    "2|gzip|0.5|45|10|1|extra"
    "1|gzip|0.5|90|10|1"
    "1|gzip|0.5|45|10|0")

set(failed 0)
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" args "${case}")
    list(POP_FRONT args expected)
    execute_process(COMMAND "${TOOL}" ${args}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL expected)
        message(SEND_ERROR
            "policy_explorer ${args}: exit ${rc}, expected ${expected}")
        set(failed 1)
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "policy_explorer argument checks failed")
endif()
