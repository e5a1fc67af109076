# Each bench binary reads each GENCACHE_* knob once and passes the
# value on (to its pool, its profiles and its artifact's stamp), so a
# malformed knob warns exactly once. Runs both --smoke benches in
# WORK (they write their BENCH_*_smoke.json there) with a malformed
# GENCACHE_THREADS and GENCACHE_SCALE, and counts the warnings.
# fleet_replay --smoke applies no scale, so it reads GENCACHE_SCALE
# not at all.
#
#   cmake -DTOURNAMENT=<policy_tournament> -DFLEET=<fleet_replay>
#         -DWORK=<work dir> -P <this file>

file(MAKE_DIRECTORY "${WORK}")
set(ENV{GENCACHE_THREADS} "x")
set(ENV{GENCACHE_SCALE} "y")

set(failed 0)
# expect_warnings(<bench> <GENCACHE_THREADS warnings>
#                 <GENCACHE_SCALE warnings>)
function(expect_warnings bench threads scale)
    execute_process(COMMAND "${bench}" --smoke
        WORKING_DIRECTORY "${WORK}"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${bench} --smoke: exit ${rc}\n${err}")
        set(failed 1 PARENT_SCOPE)
    endif()
    foreach(knob IN ITEMS THREADS SCALE)
        string(TOLOWER "${knob}" want)
        set(want "${${want}}")
        string(REGEX MATCHALL "ignoring invalid GENCACHE_${knob}="
            found "${err}")
        list(LENGTH found got)
        if(NOT got EQUAL want)
            message(SEND_ERROR "${bench} --smoke: ${got} "
                "GENCACHE_${knob} warnings, expected ${want}:\n${err}")
            set(failed 1 PARENT_SCOPE)
        endif()
    endforeach()
endfunction()

expect_warnings("${TOURNAMENT}" 1 1)
expect_warnings("${FLEET}" 1 0)
if(failed)
    message(FATAL_ERROR "a bench binary does not warn once for each "
        "GENCACHE_* knob it reads")
endif()
