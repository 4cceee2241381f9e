#!/usr/bin/env bash
# Crash-recovery smoke test for the journaled admission engine:
# admit (writing the write-ahead journal) → "kill" (the admit process is
# gone; tear the journal tail like a mid-write crash would) → replay →
# verify the rebuilt engine is byte-identical via the state digest, with
# the `--verify` audit (every verdict re-derived) agreeing on it.
# CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=scripts/admit_demo.hsc
SCRIPT=scripts/admit_demo.req
JOURNAL=$(mktemp -t hsched-replay-smoke.XXXXXX.journal)
trap 'rm -f "$JOURNAL"' EXIT

run() { cargo run --release --quiet --locked -p hsched-cli --bin hsched -- "$@"; }

# 1. Admit with a journal attached; capture the engine's state digest.
out=$(run admit "$SPEC" "$SCRIPT" --journal "$JOURNAL")
echo "$out"
echo "$out" | grep -q "epoch 1: admitted"
echo "$out" | grep -q "epoch 2: rejected (overload on Pi3)"
echo "$out" | grep -q "epoch 4: admitted"
digest=$(echo "$out" | grep -o 'state digest [0-9a-f]\{16\}' | awk '{print $3}')
test -n "$digest"

# 2. The admit process has exited ("crashed"). Replay must rebuild the
#    byte-identical engine: same digest, all 4 epochs.
replayed=$(run replay "$SPEC" "$JOURNAL")
echo "$replayed"
echo "$replayed" | grep -q "replayed 4 epoch(s)"
echo "$replayed" | grep -q "state digest $digest"

#    The audit re-commits every epoch and cross-checks each recorded
#    verdict; it must land on the same digest as the structural replay.
verified=$(run replay "$SPEC" "$JOURNAL" --verify)
echo "$verified" | grep -q "verified: every epoch re-analyzed, all 4 recorded verdict(s) agree"
echo "$verified" | grep -q "state digest $digest"

# 3. Crash tolerance: tear the journal mid-record (as a crash during the
#    final append would) — replay repairs the tail and rebuilds the state
#    as of the last complete record.
printf 'epoch 5 1\nadd torn' >> "$JOURNAL"
torn=$(run replay "$SPEC" "$JOURNAL")
echo "$torn" | grep -q "replayed 4 epoch(s)"
echo "$torn" | grep -q "state digest $digest"

# 4. JSON surfaces ride the same versioned envelope (schema v2).
json=$(run replay "$SPEC" "$JOURNAL" --json)
echo "$json" | grep -q '"v":2,"command":"replay"'
echo "$json" | grep -q "\"digest\":\"$digest\""

# 5. Compaction: fold the journal's history into a snapshot block. The
#    digest must survive, and a subsequent replay resumes from the
#    snapshot with zero tail epochs.
compacted=$(run compact "$SPEC" "$JOURNAL")
echo "$compacted"
echo "$compacted" | grep -q "compacted 4 epoch(s) into a snapshot"
echo "$compacted" | grep -q "state digest $digest"
resumed=$(run replay "$SPEC" "$JOURNAL")
echo "$resumed" | grep -q "replayed 0 epoch(s)"
echo "$resumed" | grep -q "resumed from snapshot at epoch 4"
echo "$resumed" | grep -q "state digest $digest"
verified=$(run replay "$SPEC" "$JOURNAL" --verify)
echo "$verified" | grep -q "resumed from snapshot at epoch 4"
echo "$verified" | grep -q "state digest $digest"

# 6. Compact → crash → replay: a record torn after the snapshot is
#    repaired; the engine rebuilds from snapshot + surviving tail.
printf 'epoch 5 1\nadd torn' >> "$JOURNAL"
torn=$(run replay "$SPEC" "$JOURNAL")
echo "$torn" | grep -q "replayed 0 epoch(s)"
echo "$torn" | grep -q "resumed from snapshot at epoch 4"
echo "$torn" | grep -q "state digest $digest"

echo "replay smoke: OK"
