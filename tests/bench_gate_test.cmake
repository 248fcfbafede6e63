# Drives the bench regression gate end to end against the real binary:
# write bench.v1 baseline runs, then compare current runs against them.
#
#   MODE=unchanged  back-to-back runs of the same build must compare
#                   clean (exit 0). The tolerance is wide (50%) because
#                   shared CI vCPUs move run-level medians between
#                   processes (steal time / DVFS) far beyond in-run MADs.
#   MODE=slowdown   with ACOUSTIC_BENCH_SLOWDOWN=3 on the current runs the
#                   same comparison must flag a regression and exit 1 —
#                   proving the gate actually trips on a real measured
#                   slowdown, not just on synthetic documents.
#
# Baseline and current iterations are interleaved: ROUNDS rounds each
# write one single-iteration baseline run and then one current run, and
# `--compare ... --current ...` pools each side's rounds into one median
# and MAD over ROUNDS iterations (the --quick default of 5). A host that
# switches speed part-way through therefore slows both sides alike,
# instead of only the run that happened to come second.
#
# Invoked from tests/CMakeLists.txt with -DACOUSTIC_BIN, -DWORK_DIR and
# -DMODE. Uses the cheap plan-build suite so both gate tests stay fast.
if(NOT MODE MATCHES "^(unchanged|slowdown)$")
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})
set(ROUNDS 5)
set(RUN ${ACOUSTIC_BIN} bench --quick --suite plan --iters 1)
set(CURRENT_ENV)
if(MODE STREQUAL "slowdown")
  set(CURRENT_ENV ${CMAKE_COMMAND} -E env ACOUSTIC_BENCH_SLOWDOWN=3)
endif()

set(pooled)
foreach(round RANGE 1 ${ROUNDS})
  foreach(side baseline current)
    set(doc ${WORK_DIR}/${side}_${round}.json)
    set(env)
    if(side STREQUAL "current")
      set(env ${CURRENT_ENV})
    endif()
    file(REMOVE ${doc})
    execute_process(COMMAND ${env} ${RUN} --json ${doc}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT EXISTS ${doc})
      message(FATAL_ERROR "${side} run ${round} failed (exit ${rc})")
    endif()
    if(side STREQUAL "baseline")
      list(APPEND pooled --compare ${doc})
    else()
      list(APPEND pooled --current ${doc})
    endif()
  endforeach()
endforeach()

execute_process(
  COMMAND ${ACOUSTIC_BIN} bench ${pooled} --tolerance 0.5
  RESULT_VARIABLE compare_rc)
if(MODE STREQUAL "unchanged" AND NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "back-to-back compare flagged a regression (exit ${compare_rc})")
elseif(MODE STREQUAL "slowdown" AND compare_rc EQUAL 0)
  message(FATAL_ERROR
          "3x injected slowdown did not trip the regression gate")
endif()
