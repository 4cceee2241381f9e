#!/usr/bin/env bash
# Smoke test for the engine telemetry surface: `hsched admit --stats
# --json` and `hsched stats` against the demo request script. The JSON
# leg is round-tripped through python's parser, so a malformed telemetry
# block (the one part of the envelope built from runtime-varying metric
# maps) fails loudly. CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=scripts/admit_demo.hsc
SCRIPT=scripts/admit_demo.req

json=$(cargo run --release --quiet --locked -p hsched-cli --bin hsched -- \
  admit "$SPEC" "$SCRIPT" --stats --json)
echo "$json" | grep -q '"telemetry":{'
echo "$json" | grep -q '"engine.epochs_settled":4'
echo "$json" | grep -q '"engine.phase.analyze_ns":{'
echo "$json" | grep -q '"analysis.interference.evaluations"'

# Round-trip: the whole envelope must be valid JSON and the telemetry
# block must carry coherent figures.
echo "$json" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["command"] == "admit", doc["command"]
t = doc["telemetry"]
epochs = t["counters"]["engine.epochs_settled"]
assert epochs == 4, epochs
for phase in ("reserve", "route", "checkout", "analyze", "settle"):
    h = t["histograms"]["engine.phase.%s_ns" % phase]
    assert h["count"] == epochs, (phase, h)
    assert h["p50"] <= h["p95"] <= h["p99"] <= h["max"], (phase, h)
print("telemetry round-trip: OK")
'

out=$(cargo run --release --quiet --locked -p hsched-cli --bin hsched -- \
  stats "$SPEC" "$SCRIPT")
echo "$out"
echo "$out" | grep -q "4 epoch(s) committed (3 admitted, 1 rejected)"
echo "$out" | grep -q "engine.phase.settle_ns"
echo "$out" | grep -q "admission.cone.transactions"

echo "stats smoke: OK"
