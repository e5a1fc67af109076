# Pins what `logreplay_tool replay` prints for the live run of seed 3:
# at the paper's 50%-of-maxCache point (the unbounded pre-pass picks
# 4 KB) and at 0.5 KB. The counts and overhead totals are what the
# per-event replay loop printed before the tool moved to one-lane
# blocked passes. The total prices every creation as a miss service,
# so it is not 0 at 0 misses; the line names its trace-generation part.
#
#   cmake -DTOOL=<logreplay_tool> -DWORK=<work dir> -P <this file>

file(MAKE_DIRECTORY "${WORK}")
set(log "${WORK}/live3.gclogb")
execute_process(COMMAND "${TOOL}" live 3 "${log}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "logreplay_tool live 3: exit ${rc}")
endif()

set(failed 0)
# expect_replay(<expected stdout> [capacityKb])
function(expect_replay want)
    execute_process(COMMAND "${TOOL}" replay "${log}" ${ARGN}
        RESULT_VARIABLE rc OUTPUT_VARIABLE got)
    if(NOT rc EQUAL 0 OR NOT got STREQUAL want)
        message(SEND_ERROR "logreplay_tool replay ${ARGN}: exit ${rc}, "
            "printed\n${got}expected\n${want}")
        set(failed 1 PARENT_SCOPE)
    endif()
endfunction()

expect_replay(
    "replayed '' against unified/pseudo-circular (4.00 KB)
lookups 31753, misses 0 (0.00%), overhead 1,920,795 instructions (trace generation 1,237,217)
")
expect_replay(
    "replayed '' against unified/pseudo-circular (512 B)
lookups 31753, misses 3083 (9.71%), overhead 97,895,100 instructions (trace generation 60,065,486)
" 0.5)
if(failed)
    message(FATAL_ERROR "logreplay_tool replay output moved")
endif()
