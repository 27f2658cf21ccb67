#!/bin/sh
# Exhaustive model-check gate.
#
# Runs `xguard check` over the tiny-configuration sweep (both hosts, both
# guard modes, plus the jittered trees as the wall-time budget allows) and
# compares every summary against the committed MODEL_BASELINE.json: the gate
# fails on any invariant violation, any truncated exploration, and any drift
# in reachable-state/transition counts or visited-set digests.
#
# First it runs the fingerprint audit (test/test_check.ml, group
# check-audit) with the two jittered tiny plans included, which `dune
# runtest` skips for time (~25 s): at every pruned revisit, each branch one
# decision further must reach a successor the first visit recorded.
#
# Regenerate the baseline after an intentional protocol change with
#   dune exec bin/xguard_cli.exe -- check --write-baseline MODEL_BASELINE.json
# and say why in the commit message.
#
# Usage: tools/check_model.sh [BUDGET_SECONDS]   (default 240)
set -eu
cd "$(dirname "$0")/.."
BUDGET="${1:-240}"
dune build bin/xguard_cli.exe test/main.exe
XGUARD_AUDIT_JITTER=1 dune exec test/main.exe -- test check-audit --compact
exec dune exec bin/xguard_cli.exe -- check --budget "$BUDGET" --baseline MODEL_BASELINE.json
