# Flag-validation contract for migrate_cli and javmm_lint, run as the
# migrate_cli_flag_validation ctest: every malformed or contradictory flag
# combination must be rejected with exit code 2 and a pointed stderr message,
# before any simulation or lint work starts.
# Invoke with: cmake -DCLI=<migrate_cli> [-DLINT=<javmm_lint>] -P cli_flags_test.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to migrate_cli>")
endif()

# Runs ${BIN} with the given flags; fails unless it exits 2 and stderr
# matches `pattern` (a CMake regex).
function(expect_reject_bin bin pattern)
  execute_process(COMMAND ${bin} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bin} ${ARGN}: expected exit code 2, got '${rc}'\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${bin} ${ARGN}: stderr does not match '${pattern}'\nstderr: ${err}")
  endif()
endfunction()

function(expect_reject pattern)
  expect_reject_bin(${CLI} "${pattern}" ${ARGN})
endfunction()

# Malformed --hotness specs surface the parser's message.
expect_reject("bad --hotness spec 'banana'.*bad clause" --workload=crypto --hotness=banana)
expect_reject("decay must be >= 1" --workload=crypto --hotness=decay:0)
expect_reject("min_score must be >= 1" --workload=crypto --hotness=score:0)
expect_reject("bad value '-1' for rate" --workload=crypto --hotness=rate:-1)
expect_reject("budget must be > 0" --workload=crypto --hotness=budget:0ms)

# Hotness orders pre-copy rounds; engines without live rounds reject it.
expect_reject("--hotness orders pre-copy rounds.*stopcopy has none"
              --workload=crypto --engine=stopcopy --hotness=on)
expect_reject("--hotness orders pre-copy rounds.*postcopy has none"
              --workload=crypto --engine=postcopy --hotness=on)

# The pre-existing --channels validation stays intact alongside.
expect_reject("--channels must be >= 1, got 0" --workload=crypto --channels=0)

# Numeric flags parse the whole token and are range-checked before any
# simulation starts: each of these used to abort on a CHECK (link bandwidth,
# lab heap fit, clock advance) or was silently truncated.
expect_reject("--bandwidth-gbps must be in .*got 0" --bandwidth-gbps=0)
expect_reject("bad --bandwidth-gbps value 'abc'" --bandwidth-gbps=abc)
expect_reject("--bandwidth-gbps must be in .*got -1" --bandwidth-gbps=-1)
expect_reject("--vm-mib must be in .*got 0" --vm-mib=0)
expect_reject("--vm-mib must be in .*got -5" --vm-mib=-5)
expect_reject("--vm-mib=256 is too small for workload 'derby'" --vm-mib=256)
expect_reject("--warmup-s must be in .*got -1" --warmup-s=-1)
expect_reject("bad --channels value '2x'" --channels=2x)
expect_reject("--young-mib must be in .*got -3" --young-mib=-3)
expect_reject("unknown --workload 'nope'" --workload=nope)

# javmm_lint rule-name validation: a typo in --disable=/--only= must be a hard
# usage error, never a silently widened or narrowed rule set.
if(DEFINED LINT)
  expect_reject_bin(${LINT} "unknown rule 'unit-mux'.*--list-rules" --disable=unit-mux src)
  expect_reject_bin(${LINT} "unknown rule 'overflow-mull'.*--list-rules" --only=overflow-mull src)
  expect_reject_bin(${LINT} "unknown rule ''.*--list-rules" --only= src)
  expect_reject_bin(${LINT} "usage: javmm_lint" --only=unit-mix)  # No paths.
endif()

message(STATUS "cli flag validation: all rejections exit 2 with pointed messages")
