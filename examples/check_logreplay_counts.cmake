# Pins what `logreplay_tool replay` prints for the live run of seed 3:
# at the paper's 50%-of-maxCache point (the unbounded pre-pass picks
# 4 KB) and at 0.5 KB. The counts and overhead totals are what the
# per-event replay loop printed before the tool moved to one-lane
# blocked passes. The total prices every creation as a miss service,
# so it is not 0 at 0 misses; the line names its trace-generation part.
# Also pins what `logreplay_tool info` prints for that run and for a
# module-reload journal, whose re-created trace is its own lifetime.
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
# expect(<expected stdout> <logreplay_tool arguments>...)
function(expect want)
    execute_process(COMMAND "${TOOL}" ${ARGN}
        RESULT_VARIABLE rc OUTPUT_VARIABLE got)
    if(NOT rc EQUAL 0 OR NOT got STREQUAL want)
        message(SEND_ERROR "logreplay_tool ${ARGN}: exit ${rc}, "
            "printed\n${got}expected\n${want}")
        set(failed 1 PARENT_SCOPE)
    endif()
endfunction()

expect(
    "replayed '' against unified/pseudo-circular (4.00 KB)
lookups 31753, misses 0 (0.00%), overhead 1,920,795 instructions (trace generation 1,237,217)
" replay "${log}")
expect(
    "replayed '' against unified/pseudo-circular (512 B)
lookups 31753, misses 3083 (9.71%), overhead 97,895,100 instructions (trace generation 60,065,486)
" replay "${log}" 0.5)
expect("benchmark:  \nduration:   0.74 s
events:     31832
traces:     76 (3.08 KB)
footprint:  1.90 KB
short-lived 36.8%, long-lived 10.5%
" info "${log}")
# Trace 42 lives from 1 to 2 and, re-created after its module
# reloads, from 5 to 6: two lifetimes of 1/6, both short.
set(reload "${WORK}/module-reload.gclog")
file(WRITE "${reload}" "gclog 1\nbenchmark reload-journal\n"
    "duration_us 6\nfootprint_bytes 64\nevents 7\n"
    "load 0 0 0 1\ncreate 1 42 64 1\nexec 2 42 0 0\nunload 3 0 0 1\n"
    "load 4 0 0 1\ncreate 5 42 64 1\nexec 6 42 0 0\n")
expect("benchmark:  reload-journal
duration:   0.00 s
events:     7
traces:     2 (128 B)
footprint:  64 B
short-lived 100.0%, long-lived 0.0%
" info "${reload}")
if(failed)
    message(FATAL_ERROR "logreplay_tool output moved")
endif()
