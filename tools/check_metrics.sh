#!/bin/sh
# Metrics-layer gate (ISSUE 10), four halves:
#
#   (a) metrics-off byte-identity — telemetry must be invisible when not
#       requested.  Two plain runs of the same seed must be byte-identical,
#       and a metrics-on run must differ ONLY by the delimited
#       "== metrics ==" .. "== end metrics ==" stdout block; stripping it
#       recovers the plain run byte-for-byte.
#
#   (b) stream determinism — the xguard-metrics-v1 JSONL stream must be
#       byte-identical for any campaign -j (also on a lossy, recovering
#       campaign, where the watchdog trips) and any --sim-j, and two
#       identical --slo runs must print byte-identical verdicts.
#
#   (c) JSONL schema — every line parses as one JSON object, the stream
#       opens with a schema/meta line, and the line kinds stay within the
#       documented set (python3 when available, grep probes otherwise).
#
#   (d) report merge — `xguard report --metrics A --metrics B` must merge
#       two shard streams into one health report with per-guard SLO rows.
#
# Usage: tools/check_metrics.sh
# Environment:
#   SEEDS=2 OPS=400   stress run size (big enough for several sampler ticks)
set -eu
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-2}
OPS=${OPS:-400}
SLO='xg.decide:p99<=100000;seq.e2e:p99<=1000000;avail>=0.5'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

dune build bin/xguard_cli.exe
CLI=_build/default/bin/xguard_cli.exe
TOPO2='hammer:shards=2;a0=trans,cached;b0=full,uncached,lat=12'

stress() { "$CLI" stress -c mesi/xg-trans-1lvl --seeds "$SEEDS" --ops "$OPS" "$@"; }

# The metrics block is one contiguous, delimited stdout insertion.
strip_metrics_block() {
  sed '/^== metrics ==$/,/^== end metrics ==$/d' "$1"
}

echo "== (a) metrics-off byte-identity =="
stress > "$out/off1.txt"
stress > "$out/off2.txt"
if ! cmp -s "$out/off1.txt" "$out/off2.txt"; then
  echo "check_metrics: FAIL: two metrics-off runs differ" >&2
  exit 1
fi
stress --metrics-out "$out/on.jsonl" --watchdog --slo "$SLO" > "$out/on.txt"
strip_metrics_block "$out/on.txt" > "$out/on-stripped.txt"
if ! cmp -s "$out/off1.txt" "$out/on-stripped.txt"; then
  echo "check_metrics: FAIL: metrics perturbed the run beyond its block:" >&2
  diff "$out/off1.txt" "$out/on-stripped.txt" | head -20 >&2
  exit 1
fi
echo "  mesi/xg-trans-1lvl ok (metrics block is the only stdout delta)"

echo "== (b) stream determinism =="
# campaign -j: the JSONL stream must not depend on the worker count.
for j in 1 2; do
  "$CLI" campaign -c hammer/xg-trans-1lvl --seeds 2 -j "$j" \
    --metrics-out "$out/campaign.$j.jsonl" --watchdog --slo "$SLO" \
    > "$out/campaign.$j.txt"
done
if ! cmp -s "$out/campaign.1.jsonl" "$out/campaign.2.jsonl"; then
  echo "check_metrics: FAIL: campaign stream differs between -j 1 and -j 2" >&2
  diff "$out/campaign.1.jsonl" "$out/campaign.2.jsonl" | head -10 >&2 || true
  exit 1
fi
echo "  campaign stream byte-identical across -j 1/2"

# The faulted, recovering path: link drops, quarantine -> reset -> rejoin,
# and watchdog trips all land in the stream, which must not depend on -j.
for j in 1 2; do
  "$CLI" campaign -c hammer/xg-trans-1lvl --seeds 3 --fault-drop 0.05 --recover -j "$j" \
    --metrics-out "$out/recover.$j.jsonl" --watchdog --slo "$SLO" \
    > "$out/recover.$j.txt"
done
if ! cmp -s "$out/recover.1.jsonl" "$out/recover.2.jsonl"; then
  echo "check_metrics: FAIL: recovering campaign stream differs between -j 1 and -j 2" >&2
  diff "$out/recover.1.jsonl" "$out/recover.2.jsonl" | head -10 >&2 || true
  exit 1
fi
grep -q '"t":"watchdog"' "$out/recover.1.jsonl" || {
  echo "check_metrics: FAIL: the recovering campaign raised no watchdog event" >&2
  exit 1
}
echo "  recovering campaign stream byte-identical across -j 1/2"

# --sim-j: the stream must not depend on the engine shard count either.
# The artifact path is the one legitimate stdout difference, so the echoed
# "written to" line is dropped before comparing stdout.
for j in 1 2; do
  "$CLI" stress --topology "$TOPO2" --seeds 1 --ops "$OPS" --sim-j "$j" \
    --metrics-out "$out/topo.$j.jsonl" --watchdog --slo "$SLO" \
    > "$out/topo.$j.txt"
  grep -v '^metrics stream written to ' "$out/topo.$j.txt" > "$out/topo.clean.$j"
done
if ! cmp -s "$out/topo.1.jsonl" "$out/topo.2.jsonl"; then
  echo "check_metrics: FAIL: stream differs between --sim-j 1 and --sim-j 2" >&2
  diff "$out/topo.1.jsonl" "$out/topo.2.jsonl" | head -10 >&2 || true
  exit 1
fi
if ! cmp -s "$out/topo.clean.1" "$out/topo.clean.2"; then
  echo "check_metrics: FAIL: stdout differs between --sim-j 1 and --sim-j 2" >&2
  diff "$out/topo.clean.1" "$out/topo.clean.2" | head -10 >&2 || true
  exit 1
fi
echo "  topology stream + verdicts byte-identical across --sim-j 1/2"

# SLO verdict determinism: same run twice, same verdict table, same stream.
stress --metrics-out "$out/slo2.jsonl" --watchdog --slo "$SLO" > "$out/slo2.txt"
sed "s|$out/on.jsonl|STREAM|" "$out/on.txt" > "$out/slo.a"
sed "s|$out/slo2.jsonl|STREAM|" "$out/slo2.txt" > "$out/slo.b"
if ! cmp -s "$out/slo.a" "$out/slo.b" || ! cmp -s "$out/on.jsonl" "$out/slo2.jsonl"; then
  echo "check_metrics: FAIL: identical --slo runs produced different verdicts" >&2
  exit 1
fi
echo "  SLO verdicts deterministic across identical runs"

echo "== (c) JSONL schema =="
check_stream() {
  file=$1
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$file" << 'EOF'
import json, sys

kinds = {"job", "sample", "watchdog", "avail", "hist", "shist", "slo"}
seen = set()
with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l]
assert lines, "empty stream"
meta = json.loads(lines[0])
assert meta.get("schema") == "xguard-metrics-v1", f"bad schema line: {meta}"
assert isinstance(meta.get("period"), int) and meta["period"] > 0
assert isinstance(meta.get("jobs"), int) and meta["jobs"] > 0
for l in lines[1:]:
    obj = json.loads(l)
    kind = obj.get("t")
    assert kind in kinds, f"unknown line type {kind!r}: {l[:80]}"
    seen.add(kind)
    if kind == "hist":
        assert {"guard", "metric", "count", "sum", "min", "max", "buckets"} <= set(obj)
    if kind == "sample":
        assert isinstance(obj.get("ts"), int) and obj["ts"] >= 0
        assert isinstance(obj.get("counters"), dict)
        assert isinstance(obj.get("gauges"), dict)
assert "sample" in seen, "no sample lines"
assert "slo" in seen, "no embedded SLO verdicts"
print(f"  {sys.argv[1]}: {len(lines)} lines, kinds: {sorted(seen)}")
EOF
  else
    echo "  warning: python3 not found; grep probes only" >&2
    grep -q '"schema":"xguard-metrics-v1"' "$file"
    grep -q '"t":"sample"' "$file"
    grep -q '"t":"slo"' "$file"
    echo "  $file: grep probes ok (schema not fully validated)"
  fi
}
check_stream "$out/on.jsonl"
check_stream "$out/campaign.1.jsonl"
check_stream "$out/recover.1.jsonl"
check_stream "$out/topo.1.jsonl"

echo "== (d) report merges shard streams =="
"$CLI" report --metrics "$out/campaign.1.jsonl" --metrics "$out/topo.1.jsonl" \
  --slo "$SLO" --html "$out/health.html" > "$out/report.txt"
grep -q 'xguard health report' "$out/report.txt" || {
  echo "check_metrics: FAIL: report did not render a health report" >&2
  exit 1
}
grep -q 'Merged metric streams' "$out/report.txt" || {
  echo "check_metrics: FAIL: report did not list the merged streams" >&2
  exit 1
}
grep -q 'avail>=' "$out/report.txt" || {
  echo "check_metrics: FAIL: report has no SLO verdict rows" >&2
  exit 1
}
[ -s "$out/health.html" ] || {
  echo "check_metrics: FAIL: --html wrote nothing" >&2
  exit 1
}
echo "  two shard streams merged; HTML dashboard written"

echo "check_metrics: OK"
