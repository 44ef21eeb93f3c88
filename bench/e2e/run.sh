#!/bin/sh
# Builds ghostbench from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   sh bench/e2e/run.sh --workload mixed_read --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so stdout holds only the benchmark's
# report, whose last line is the JSON result.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/ghostbench.exe >&2
exec ./_build/default/bench/e2e/ghostbench.exe "$@"
