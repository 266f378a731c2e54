# The tools' exit-code contract, pinned end to end (`cmake -P` script
# mode; see CMakeLists.txt, test tools_exit_codes). All four CLIs agree:
#
#   0  the tool completed and its answer is clean — including "unsolvable"
#      verdicts (engine_cli, gact_sweep) and skipped scenarios
#      (gact_fuzz), which are answers, not failures
#   1  a real negative finding: a Definition 4.1 violation (gact_fuzz) or
#      an ok:false server reply (gact_client)
#   2  usage error: unknown flag, unknown scenario, contradictory flags
#   3  internal/transport error: an exception escaped, or the server
#      reply never arrived
#
# Expected -D definitions: CLI (example_engine_cli), FUZZ (gact_fuzz),
# CLIENT (gact_client), SWEEP (gact_sweep). Every invocation here is
# milliseconds-scale: the solvable scenarios used are depth-0/1, the
# sweep grids are tiny, and the client targets a port nothing listens on.

if(NOT DEFINED CLI OR NOT DEFINED FUZZ OR NOT DEFINED CLIENT OR NOT DEFINED SWEEP)
  message(FATAL_ERROR "usage: cmake -DCLI=<example_engine_cli> -DFUZZ=<gact_fuzz> -DCLIENT=<gact_client> -DSWEEP=<gact_sweep> -P exit_codes_e2e.cmake")
endif()

function(expect_exit expected label)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# --- example_engine_cli -----------------------------------------------------
# Unsolvable is an answer: the batch completed, exit 0.
expect_exit(0 "engine_cli unsolvable verdict"
  "${CLI}" --threads 1 --no-pool consensus-2-wf)
# Usage errors: unknown scenario name, contradictory pool flags, a
# malformed thread count.
expect_exit(2 "engine_cli bad --threads"
  "${CLI}" --threads 2x consensus-2-wf)
expect_exit(2 "engine_cli unknown scenario"
  "${CLI}" no-such-scenario)
expect_exit(2 "engine_cli contradictory flags"
  "${CLI}" --no-pool --pool-file /tmp/never-written.pool ksa-2p-k2-wf)

# --- gact_fuzz --------------------------------------------------------------
# A clean campaign and a skipped (unsolvable) scenario both exit 0.
expect_exit(0 "gact_fuzz clean campaign"
  "${FUZZ}" --scenario ksa-2p-k2-wf --iters 25 --threads 2)
expect_exit(0 "gact_fuzz skipped scenario"
  "${FUZZ}" --scenario consensus-2-wf --iters 5)
expect_exit(2 "gact_fuzz unknown flag"
  "${FUZZ}" --no-such-flag)
expect_exit(2 "gact_fuzz unknown scenario"
  "${FUZZ}" --scenario no-such-scenario)
# Numeric flags are range-checked before any work starts: a non-number,
# a trailing-junk number and a negative thread count are usage errors,
# not a 0-schedule campaign, a 10-schedule one, or 4294967295 threads.
expect_exit(2 "gact_fuzz non-numeric --iters"
  "${FUZZ}" --scenario is-1-wf --iters abc)
expect_exit(2 "gact_fuzz trailing junk in --iters"
  "${FUZZ}" --scenario is-1-wf --iters 10x)
expect_exit(2 "gact_fuzz negative --threads"
  "${FUZZ}" --scenario is-1-wf --threads -1 --iters 5)

# --- gact_sweep -------------------------------------------------------------
# A completed sweep exits 0 whatever the verdicts are.
expect_exit(0 "gact_sweep tiny grid"
  "${SWEEP}" --family wf-is --param n=1..2 --threads 1)
expect_exit(0 "gact_sweep list families"
  "${SWEEP}" --list-families)
# Usage errors: unknown family, out-of-schema axis value, unknown flag.
expect_exit(2 "gact_sweep unknown family"
  "${SWEEP}" --family no-such-family)
expect_exit(2 "gact_sweep out-of-range axis"
  "${SWEEP}" --family wf-is --param n=1..9)
expect_exit(2 "gact_sweep unknown flag"
  "${SWEEP}" --no-such-flag)
expect_exit(2 "gact_sweep missing selection"
  "${SWEEP}" --threads 1)
expect_exit(2 "gact_sweep non-numeric --threads"
  "${SWEEP}" --family wf-is --param n=1..2 --threads x)

# --- gact_client ------------------------------------------------------------
expect_exit(2 "gact_client unknown command"
  "${CLIENT}" frobnicate)
expect_exit(2 "gact_client solve without scenario"
  "${CLIENT}" solve)
expect_exit(2 "gact_client non-numeric --port"
  "${CLIENT}" --port 74x1 stats)
# Port 1 is privileged and unbound in the test environment: the connect
# fails, which is a transport error (3), not a solver-level failure (1).
expect_exit(3 "gact_client no server"
  "${CLIENT}" --port 1 stats)

message(STATUS "exit-code e2e: all four tools honor the 0/1/2/3 contract")
