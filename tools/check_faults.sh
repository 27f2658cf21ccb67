#!/bin/sh
# Lossy-link fault matrix (PR 3) + recovery lifecycle suite (PR 8).
#
# Sweeps the fault-injection campaign over drop probabilities x both hosts
# and asserts the recovery layer holds the line:
#   - faulted campaigns must still PASS (zero data errors, deadlocks or
#     guard violations — every lost frame recovered by retransmission);
#   - a directed kill script must quarantine the accelerator while the fuzz
#     run completes safely;
#   - under a recovery policy a kill script's quarantine must reset, rejoin
#     and keep the host live, and the recovery soak's periodic fault bursts
#     must produce rejoins without ever wedging.
# That idle link knobs (--reliable-link at drop 0, a never-tripping budget,
# an idle recovery policy) move nothing is checked by test/test_observers.ml.
#
# Usage: tools/check_faults.sh [drop probabilities...]   (default: 0 0.01 0.05)
set -eu
cd "$(dirname "$0")/.."

drops=${*:-"0 0.01 0.05"}
jobs=2

dune build

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "== fault matrix: drop in {$drops} x both hosts, -j $jobs =="
for drop in $drops; do
  for host in hammer mesi; do
    for mode in xg-trans-1lvl xg-full-1lvl; do
      c="$host/$mode"
      tag=$(echo "${c}_drop${drop}" | tr '/.' '__')
      if ! dune exec bin/xguard_cli.exe -- campaign -c "$c" --seeds 2 -j $jobs \
          --fault-drop "$drop" > "$out/m_$tag.txt"; then
        echo "FAIL: campaign $c --fault-drop $drop" >&2
        cat "$out/m_$tag.txt" >&2
        exit 1
      fi
      if ! grep -q '^PASS$' "$out/m_$tag.txt"; then
        echo "FAIL: campaign $c --fault-drop $drop did not report PASS" >&2
        cat "$out/m_$tag.txt" >&2
        exit 1
      fi
      echo "$c drop=$drop: PASS"
    done
  done
done

echo "== directed kill script: quarantine fires, host completes =="
dune exec bin/xguard_cli.exe -- fuzz -c hammer/xg-trans-1lvl --fault-script kill:200 \
  > "$out/kill.txt"
if ! grep -q '^link quarantined   true$' "$out/kill.txt"; then
  echo "FAIL: kill script did not quarantine the accelerator" >&2
  cat "$out/kill.txt" >&2
  exit 1
fi
if ! grep -q '^deadlocked         false$' "$out/kill.txt"; then
  echo "FAIL: kill-the-link run deadlocked" >&2
  cat "$out/kill.txt" >&2
  exit 1
fi
echo "quarantine fired; host stayed live"

echo "== recovery suite: kill script under a recovery policy rejoins =="
dune exec bin/xguard_cli.exe -- fuzz -c hammer/xg-trans-1lvl --seed 2 \
  --fault-script kill:200 --recover > "$out/recover.txt"
if ! grep -q '^link rejoins       [1-9]' "$out/recover.txt"; then
  echo "FAIL: recovery policy did not rejoin after the kill script" >&2
  cat "$out/recover.txt" >&2
  exit 1
fi
if ! grep -q '^permakilled        false$' "$out/recover.txt"; then
  echo "FAIL: recovery run ended permakilled" >&2
  cat "$out/recover.txt" >&2
  exit 1
fi
if ! grep -q '^deadlocked         false$' "$out/recover.txt"; then
  echo "FAIL: recovery run deadlocked" >&2
  cat "$out/recover.txt" >&2
  exit 1
fi
echo "kill script quarantined, link reset and rejoined; host stayed live"

echo "== recovery soak: periodic fault bursts, rejoins > 0, no wedge =="
if ! dune exec tools/soak.exe 2 100 recovery > "$out/soak.txt" 2>&1; then
  echo "FAIL: recovery soak" >&2
  cat "$out/soak.txt" >&2
  exit 1
fi
cat "$out/soak.txt"

echo "check_faults: OK"
