#!/bin/sh
# Byte-identity judge for a change that must not move simulated output.
#
# Extracts BASE (any git revision) with `git archive` into
# _build/identity/base, builds it there, and runs the same surfaces on BASE
# and on this working tree:
#
#   smoke        xbench.exe smoke --baseline MODEL_BASELINE.json
#                (every workload once at smoke scale, traced and untraced)
#   sim_digest   xbench.exe --workload W --seed S --seconds 0.01 for the six
#                workloads at seeds 1-3; the `sim_digest` lines compare
#   bench        bench/main.exe --quick stdout
#   check        xguard check --baseline MODEL_BASELINE.json stdout, with the
#                per-plan wall times stripped
#
# Each side reads its own MODEL_BASELINE.json.  Prints one IDENTICAL or
# DIFFERS line per surface (sim_digest per workload), with the first lines of
# the diff under a DIFFERS, and exits 1 on any difference.  The extracted
# tree is removed on exit.  It is not a CI gate: a change that alters
# behaviour on purpose differs by design.  It takes about three minutes on
# two cores.
#
# Usage: tools/check_identity.sh BASE        (e.g. HEAD~1, main, a commit id)
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
  echo "usage: tools/check_identity.sh BASE" >&2
  exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "check_identity: $1 is not a commit" >&2
  exit 2
}
export DUNE_CACHE=disabled
top=$(pwd)
work=$top/_build/identity
rm -rf "$work"
mkdir -p "$work/base"
trap 'rm -rf "$work"' EXIT INT TERM
git archive "$rev" | tar -x -C "$work/base"

WORKLOADS="kernels stress fuzz recovery topo4 check"

# run_side DIR OUT: every surface of the checkout in DIR, into OUT.*
run_side() {
  dir=$1
  out=$2
  (cd "$dir" && dune build --root . ./xbench/xbench.exe ./bench/main.exe \
    ./bin/xguard_cli.exe) >&2
  bin=$dir/_build/default
  (cd "$dir" && "$bin/xbench/xbench.exe" smoke --baseline MODEL_BASELINE.json \
    && echo "exit 0" || echo "exit $?") >"$out.smoke" 2>&1
  for w in $WORKLOADS; do
    for s in 1 2 3; do
      printf '%s seed %s ' "$w" "$s"
      (cd "$dir" && "$bin/xbench/xbench.exe" --workload "$w" --seed "$s" --seconds 0.01 \
        2>/dev/null | grep '^sim_digest' || echo "no sim_digest")
    done >"$out.sim_digest.$w"
  done
  (cd "$dir" && "$bin/bench/main.exe" --quick 2>/dev/null && echo "exit 0" \
    || echo "exit $?") >"$out.bench"
  (cd "$dir" && "$bin/bin/xguard_cli.exe" check --baseline MODEL_BASELINE.json \
    && echo "exit 0" || echo "exit $?") 2>&1 \
    | sed 's/  ([0-9.]*s)$//' >"$out.check"
}

echo "check_identity: base $rev" >&2
run_side "$work/base" "$work/a"
echo "check_identity: working tree" >&2
run_side "$top" "$work/b"

status=0
judge() {
  if cmp -s "$work/a.$1" "$work/b.$1"; then
    echo "IDENTICAL $2"
  else
    echo "DIFFERS   $2"
    diff "$work/a.$1" "$work/b.$1" | head -n 10 | sed 's/^/    /'
    status=1
  fi
}
judge smoke "smoke"
for w in $WORKLOADS; do
  judge "sim_digest.$w" "sim_digest $w (seeds 1-3)"
done
judge bench "bench --quick"
judge check "check --baseline MODEL_BASELINE.json"
exit $status
