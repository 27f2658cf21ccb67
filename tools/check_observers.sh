#!/bin/sh
# Observer artifact gate: what test/test_observers.ml (observer purity and
# -j identity, run by `dune runtest`) does not cover.
#
#   (a) Perfetto schema — `stress --spans --spans-out` on one Hammer and one
#       MESI config must emit trace-event JSON that parses, contains complete
#       ("X") events with ts/dur/pid/tid/cat fields, counter ("C") series from
#       the observer sampler, and >= MIN_SEGS distinct segment names.
#
#   (b) stream determinism — two identical --slo runs must print
#       byte-identical verdicts and xguard-metrics-v1 JSONL streams.
#
#   (c) JSONL schema — every line parses as one JSON object, the stream
#       opens with a schema/meta line, and the line kinds stay within the
#       documented set.
#
#   (d) report merge — `xguard report --metrics A --metrics B` must merge
#       two shard streams into one health report with per-guard SLO rows.
#
# Validation uses python3's stdlib json when available, else jq (Perfetto
# only), else falls back to grep probes with a warning.  No dependencies are
# installed.
#
# Usage: tools/check_observers.sh
# Environment:
#   OPS=4000       span run size (big enough that every gated segment and
#                  all five guard txn types appear)
#   MIN_SEGS=6     distinct-segment floor for the Perfetto traces
#   SEEDS=2 MOPS=400   metrics run size (several sampler ticks)
set -eu
cd "$(dirname "$0")/.."

OPS=${OPS:-4000}
MIN_SEGS=${MIN_SEGS:-6}
SEEDS=${SEEDS:-2}
MOPS=${MOPS:-400}
SLO='xg.decide:p99<=100000;seq.e2e:p99<=1000000;avail>=0.5'
TOPO2='hammer:shards=2;a0=trans,cached;b0=full,uncached,lat=12'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

dune build bin/xguard_cli.exe
CLI=_build/default/bin/xguard_cli.exe

echo "== (a) Perfetto trace schema =="
check_json() {
  file=$1
  if command -v python3 > /dev/null 2>&1; then
    MIN_SEGS="$MIN_SEGS" python3 - "$file" << 'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
xs = [e for e in events if e.get("ph") == "X"]
assert xs, "no complete (X) events"
for e in xs:
    missing = {"name", "cat", "ts", "dur", "pid", "tid"} - set(e)
    assert not missing, f"X event missing {missing}: {e}"
segs = {e["name"] for e in xs}
floor = int(os.environ["MIN_SEGS"])
assert len(segs) >= floor, f"only {len(segs)} segments ({sorted(segs)}), need {floor}"
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert counters, "no counter (C) series from the sampler"
assert any(e.get("ph") == "M" for e in events), "no metadata events"
print(f"  {sys.argv[1]}: {len(xs)} X events, {len(segs)} segments, "
      f"{len(counters)} counter series")
EOF
  elif command -v jq > /dev/null 2>&1; then
    segs=$(jq -r '[.traceEvents[] | select(.ph == "X") | .name] | unique | length' "$file")
    counters=$(jq -r '[.traceEvents[] | select(.ph == "C")] | length' "$file")
    [ "$segs" -ge "$MIN_SEGS" ] || { echo "check_observers: FAIL: $segs segments < $MIN_SEGS" >&2; exit 1; }
    [ "$counters" -gt 0 ] || { echo "check_observers: FAIL: no counter events" >&2; exit 1; }
    echo "  $file: $segs segments, $counters counter events (jq)"
  else
    echo "  warning: neither python3 nor jq found; grep probes only" >&2
    grep -q '"traceEvents"' "$file"
    grep -q '"ph":"X"' "$file"
    grep -q '"ph":"C"' "$file"
    echo "  $file: grep probes ok (schema not fully validated)"
  fi
}
for cfg in hammer/xg-trans-1lvl mesi/xg-trans-1lvl; do
  tag=$(echo "$cfg" | tr / _)
  "$CLI" stress --config "$cfg" --seeds 1 --ops "$OPS" --spans --spans-out="$out/$tag.json" \
    > /dev/null
  check_json "$out/$tag.json"
done

echo "== (b) stream determinism =="
stress() { "$CLI" stress -c mesi/xg-trans-1lvl --seeds "$SEEDS" --ops "$MOPS" "$@"; }

# SLO verdict determinism: same run twice, same verdict table, same stream.
stress --metrics-out "$out/slo1.jsonl" --watchdog --slo "$SLO" > "$out/slo1.txt"
stress --metrics-out "$out/slo2.jsonl" --watchdog --slo "$SLO" > "$out/slo2.txt"
sed "s|$out/slo1.jsonl|STREAM|" "$out/slo1.txt" > "$out/slo.a"
sed "s|$out/slo2.jsonl|STREAM|" "$out/slo2.txt" > "$out/slo.b"
if ! cmp -s "$out/slo.a" "$out/slo.b" || ! cmp -s "$out/slo1.jsonl" "$out/slo2.jsonl"; then
  echo "check_observers: FAIL: identical --slo runs produced different verdicts" >&2
  exit 1
fi
echo "  SLO verdicts deterministic across identical runs"

echo "== (c) JSONL schema =="
# A lossy, recovering campaign, whose stream carries watchdog lines too, and
# a two-guard topology stream.
"$CLI" campaign -c hammer/xg-trans-1lvl --seeds 2 --fault-drop 0.05 --recover \
  --metrics-out "$out/recover.jsonl" --watchdog --slo "$SLO" > /dev/null
"$CLI" stress --topology "$TOPO2" --seeds 1 --ops "$MOPS" \
  --metrics-out "$out/topo.jsonl" --watchdog --slo "$SLO" > /dev/null
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
check_stream "$out/slo1.jsonl"
check_stream "$out/recover.jsonl"
check_stream "$out/topo.jsonl"

echo "== (d) report merges shard streams =="
"$CLI" report --metrics "$out/recover.jsonl" --metrics "$out/topo.jsonl" \
  --slo "$SLO" --html "$out/health.html" > "$out/report.txt"
grep -q 'xguard health report' "$out/report.txt" || {
  echo "check_observers: FAIL: report did not render a health report" >&2
  exit 1
}
grep -q 'Merged metric streams' "$out/report.txt" || {
  echo "check_observers: FAIL: report did not list the merged streams" >&2
  exit 1
}
grep -q 'avail>=' "$out/report.txt" || {
  echo "check_observers: FAIL: report has no SLO verdict rows" >&2
  exit 1
}
[ -s "$out/health.html" ] || {
  echo "check_observers: FAIL: --html wrote nothing" >&2
  exit 1
}
echo "  two shard streams merged; HTML dashboard written"

echo "check_observers: OK"
