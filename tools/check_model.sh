#!/bin/sh
# Exhaustive model-check gate.
#
# Runs `xguard check` over the tiny-configuration sweep (both hosts, both
# guard modes, plus the jittered trees as the wall-time budget allows) and
# compares every summary against the committed MODEL_BASELINE.json: the gate
# fails on any invariant violation, any truncated exploration, and any drift
# in reachable-state/transition counts or visited-set digests.  The four
# small trees are also explored with frontier sharding (-j 2), which must
# reach the same fixed points and report them complete.
#
# Regenerate the baseline after an intentional protocol change with
#   dune exec bin/xguard_cli.exe -- check --write-baseline MODEL_BASELINE.json
# and say why in the commit message.
#
# Usage: tools/check_model.sh [BUDGET_SECONDS]   (default 240)
set -eu
cd "$(dirname "$0")/.."
BUDGET="${1:-240}"
dune build bin/xguard_cli.exe
dune exec bin/xguard_cli.exe -- check -j 2 -c hammer/full -c mesi/full -c hammer/trans \
  -c mesi/trans --baseline MODEL_BASELINE.json
exec dune exec bin/xguard_cli.exe -- check --budget "$BUDGET" --baseline MODEL_BASELINE.json
