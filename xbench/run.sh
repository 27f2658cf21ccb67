#!/usr/bin/env bash
# Build the benchmark from source, then run it.  Run from the root of
# a checkout:
#   bash xbench/run.sh --workload kernels --seed 1 --seconds 15 --trace 0
# Build output goes to stderr (and _build/), so the benchmark's last stdout line
# stays the JSON result.  Exits non-zero without a result if the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./xbench/xbench.exe 1>&2
exec ./_build/default/xbench/xbench.exe "$@"
