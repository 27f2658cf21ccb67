#!/bin/sh
# Campaign determinism sweep + documentation build smoke test.
#
# The campaign layer's headline invariant is that -j only changes wall-clock
# time, never output: jobs are enumerated in a fixed order, seeds are derived
# per job position, and merging happens in job order (lib/harness/campaign.ml).
# This script asserts byte-equality of a small campaign across worker counts,
# checks the campaign passes at all, and — when odoc is installed — builds the
# API docs so doc-comment rot fails fast.
#
# Usage: tools/check_campaign.sh
set -eu
cd "$(dirname "$0")/.."

dune build

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== campaign determinism: -c all --seeds 2 under -j 1/2/4 =="
for j in 1 2 4; do
  dune exec bin/xguard_cli.exe -- campaign -c all --seeds 2 -j "$j" \
    > "$out/campaign_j$j.txt"
done
for j in 2 4; do
  if ! diff -u "$out/campaign_j1.txt" "$out/campaign_j$j.txt"; then
    echo "FAIL: campaign output differs between -j 1 and -j $j" >&2
    exit 1
  fi
done
echo "byte-identical across -j 1/2/4"
tail -n 2 "$out/campaign_j1.txt"
if ! grep -q '^PASS$' "$out/campaign_j1.txt"; then
  echo "FAIL: campaign reported failures" >&2
  exit 1
fi

echo "== topology campaign determinism: N=3 mixed topology under -j 1/2/4 =="
topo='hammer:shards=2;gpu0=trans,cached;nic0=full,uncached,lat=12;dsp0=trans,2lvl,cores=2'
for j in 1 2 4; do
  dune exec bin/xguard_cli.exe -- campaign --topology "$topo" --seeds 4 -j "$j" \
    > "$out/topo_j$j.txt"
done
for j in 2 4; do
  if ! diff -u "$out/topo_j1.txt" "$out/topo_j$j.txt"; then
    echo "FAIL: topology campaign output differs between -j 1 and -j $j" >&2
    exit 1
  fi
done
echo "byte-identical across -j 1/2/4"
if ! grep -q '^PASS$' "$out/topo_j1.txt"; then
  echo "FAIL: topology campaign reported failures" >&2
  exit 1
fi

# A lossy, recovering link, so the per-seed link[...] and rec[...] parts of
# the shared job-order fold are checked for -j identity too.
echo "== stress CLI determinism: lossy --seeds 4 under -j 1/3 =="
dune exec bin/xguard_cli.exe -- stress -c mesi/xg-full-1lvl --seeds 4 -j 1 \
  --fault-drop 0.05 --recover > "$out/stress_j1.txt"
dune exec bin/xguard_cli.exe -- stress -c mesi/xg-full-1lvl --seeds 4 -j 3 \
  --fault-drop 0.05 --recover > "$out/stress_j3.txt"
grep -q 'link\[inj=.*rec\[rejoins=' "$out/stress_j1.txt" || {
  echo "FAIL: lossy stress lines lack their link[...]/rec[...] parts" >&2
  exit 1
}
diff -u "$out/stress_j1.txt" "$out/stress_j3.txt" || {
  echo "FAIL: stress output differs between -j 1 and -j 3" >&2
  exit 1
}
echo "byte-identical across -j 1/3"

# The container may not carry odoc; the doc build is a smoke test, not a gate,
# when the tool is absent.
echo "== dune build @doc =="
if dune build @doc 2>/dev/null; then
  echo "docs built"
else
  if command -v odoc >/dev/null 2>&1; then
    echo "FAIL: odoc is installed but dune build @doc failed" >&2
    dune build @doc
    exit 1
  fi
  echo "odoc not installed; skipping doc build"
fi

echo "check_campaign: OK"
