#!/bin/sh
# Sharded-simulator gate (ISSUE 9): the hard invariant is that --sim-j N
# produces byte-identical stdout and span artifacts for every N, on every
# gated config.  That part always runs.  The speedup smoke needs real
# parallelism, so it only runs when the machine has >= 2 CPUs (a 1-CPU box
# timeshares the worker domains and can only measure overhead) — it is
# SKIPped, loudly, otherwise.
#
# Usage: tools/check_pdes.sh
# Environment:
#   SPEEDUP_MIN=1.2   minimum wall-clock ratio (sim-j 1 / sim-j 4) to pass
#                     the smoke on a multi-core machine (the 1.5x target is
#                     measured by the committed bench baseline, not here)
#   STRESS_OPS=1500   per-core ops for the speedup measurement run
set -eu
cd "$(dirname "$0")/.."

SPEEDUP_MIN=${SPEEDUP_MIN:-1.2}
STRESS_OPS=${STRESS_OPS:-1500}

dune build bin/xguard_cli.exe
CLI=_build/default/bin/xguard_cli.exe
TOPO4='hammer:shards=2;a0=trans,cached;b0=full,uncached,lat=12;c0=trans,2lvl,cores=2,lat=6;d0=full,cached'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0
skipped=0

# run_case NAME -- CLI ARGS... : run with --sim-j 1/2/4 (+ a span timeline)
# and require stdout and the span JSON to be byte-identical across the three.
# The one legitimate difference is the artifact path we choose per run, so
# the "span timeline written to" line is stripped before comparing.
run_case() {
  name=$1; shift
  for j in 1 2 4; do
    if ! "$CLI" "$@" --sim-j "$j" --spans --spans-out "$out/$name.spans.$j.json" \
        > "$out/$name.stdout.$j" 2>&1; then
      echo "check_pdes: FAIL: $name --sim-j $j exited nonzero" >&2
      sed 's/^/    /' "$out/$name.stdout.$j" >&2
      fail=1
      return
    fi
    grep -v '^span timeline written to ' "$out/$name.stdout.$j" \
      > "$out/$name.clean.$j"
  done
  for j in 2 4; do
    if ! cmp -s "$out/$name.clean.1" "$out/$name.clean.$j"; then
      echo "check_pdes: FAIL: $name stdout differs between --sim-j 1 and --sim-j $j" >&2
      diff "$out/$name.clean.1" "$out/$name.clean.$j" | head -20 >&2 || true
      fail=1
    fi
    if ! cmp -s "$out/$name.spans.1.json" "$out/$name.spans.$j.json"; then
      echo "check_pdes: FAIL: $name span timeline differs between --sim-j 1 and --sim-j $j" >&2
      fail=1
    fi
  done
  echo "  $name: --sim-j 1/2/4 byte-identical"
}

echo "== byte-identity: stdout + span timelines across --sim-j 1/2/4 =="
run_case run_hammer_1lvl run -c hammer/xg-trans-1lvl
run_case run_mesi_2lvl run -c mesi/xg-full-2lvl -w streaming
run_case stress_legacy stress -c mesi/xg-trans-1lvl --seeds 3 --ops 200
run_case stress_topo4 stress --topology "$TOPO4" --seeds 2 --ops 200
run_case stress_topo4_jobs stress --topology "$TOPO4" --seeds 4 --ops 100 -j 2

echo "== eligibility: ineligible configs must be refused cleanly =="
if "$CLI" stress -c hammer/accel-side --sim-j 2 --seeds 1 > "$out/inelig" 2>&1; then
  echo "check_pdes: FAIL: guard-less config accepted --sim-j" >&2
  fail=1
elif ! grep -q 'sim-j' "$out/inelig"; then
  echo "check_pdes: FAIL: rejection message does not mention --sim-j" >&2
  fail=1
else
  echo "  guard-less config refused with a reason"
fi
if "$CLI" stress -c hammer/xg-trans-1lvl --fault-drop 0.01 --sim-j 2 --seeds 1 \
    > "$out/inelig2" 2>&1; then
  echo "check_pdes: FAIL: faulty-link config accepted --sim-j" >&2
  fail=1
elif ! grep -q 'sim-j' "$out/inelig2"; then
  echo "check_pdes: FAIL: rejection message does not mention --sim-j" >&2
  fail=1
else
  echo "  faulty-link config refused with a reason"
fi

ncpu=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -n 1)
echo "== speedup smoke (machine has $ncpu CPUs) =="
if [ "$ncpu" -lt 2 ]; then
  skipped=1
  echo "  SKIP: speedup is unobservable on a single-CPU machine; the"
  echo "  byte-identity gate above still ran.  Run this script on >= 2 CPUs"
  echo "  (or compare pdes.* rows across BENCH_*.json) for the wall-clock check."
  # GitHub Actions surfaces this as a step annotation; harmless elsewhere.
  echo "::warning::check_pdes speedup smoke SKIPPED ($ncpu CPU); byte-identity still checked"
else
  wall() {
    start=$(date +%s%N)
    "$CLI" stress --topology "$TOPO4" --seeds 1 --ops "$STRESS_OPS" --sim-j "$1" \
      > /dev/null 2>&1
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
  }
  # Warm up (page cache, first-run effects), then measure.
  wall 1 > /dev/null
  t1=$(wall 1)
  t4=$(wall 4)
  ratio=$(awk -v a="$t1" -v b="$t4" 'BEGIN { printf "%.2f", a / b }')
  echo "  4-guard stress: --sim-j 1 ${t1}ms, --sim-j 4 ${t4}ms (${ratio}x)"
  if awk -v r="$ratio" -v m="$SPEEDUP_MIN" 'BEGIN { exit !(r < m) }'; then
    echo "check_pdes: FAIL: speedup ${ratio}x below ${SPEEDUP_MIN}x" >&2
    fail=1
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "check_pdes: FAIL" >&2
  exit 1
fi
if [ "$skipped" -ne 0 ]; then
  echo "check_pdes: PASS (WARNING: speedup smoke SKIPPED on a $ncpu-CPU machine)"
else
  echo "check_pdes: PASS"
fi
