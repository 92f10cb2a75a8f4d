#!/bin/sh
# Campaign smoke test: boot roughsimd with the journal + disk cache and
# the crash injector armed at the 1st campaign cell completion, POST a
# 2x2 parameter campaign, and watch the daemon die mid-campaign with the
# SIGKILL-like status 137. Then restart it against the same state dirs
# and require the campaign durability contract:
#   - the campaign resumes under its original content-addressed ID;
#   - the cell finished before the crash is taken from the result cache,
#     not re-solved (campaign.cells_cached / sweep.node_solves prove it);
#   - the CSV artifact is byte-identical to an uninterrupted run.
set -eu

PORT="${SMOKE_PORT:-18091}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
BIN="$WORK/roughsimd"
STATE="$WORK/state"
mkdir -p "$STATE"

go build -o "$BIN" ./cmd/roughsimd

CAMPAIGN='{
  "accuracy": {"grid": 8, "dim": 2},
  "grid": {
    "sigmas": {"values": [2e-7, 4e-7]},
    "etas":   {"values": [1e-6, 2e-6]}
  },
  "freqs_hz": [5e9]
}'

start_daemon() { # $1 = state dir, $2 = chaos spec ("" for none)
    if [ -n "$2" ]; then
        "$BIN" -addr "127.0.0.1:$PORT" -workers 1 \
            -journal "$1/journal.wal" -cache-dir "$1/cache" -chaos "$2" &
    else
        "$BIN" -addr "127.0.0.1:$PORT" -workers 1 \
            -journal "$1/journal.wal" -cache-dir "$1/cache" &
    fi
    PID=$!
}

wait_healthy() {
    i=0
    until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 50 ] || { echo "FAIL: daemon did not come up"; exit 1; }
        sleep 0.2
    done
}

wait_campaign() { # $1 = campaign id; the top-level status is first in the JSON
    i=0
    while :; do
        STATUS=$(curl -sf "$BASE/v1/campaigns/$1" | sed -n 's/.*"status"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
        case "$STATUS" in
        succeeded) break ;;
        failed | canceled) echo "FAIL: campaign $1 ended $STATUS"; exit 1 ;;
        esac
        i=$((i + 1))
        [ "$i" -le 300 ] || { echo "FAIL: campaign $1 did not finish"; exit 1; }
        sleep 0.2
    done
}

counter() { # $1 = counter name; reads JSON /metrics
    curl -sf "$BASE/metrics" |
        sed -n 's/.*"'"$1"'"[: ]*\([0-9][0-9]*\).*/\1/p' | head -n 1
}

trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

# --- Phase 1: crash right after the 1st cell's results are durable ------
start_daemon "$STATE" "campaign.cell:1"
wait_healthy
RESP=$(curl -sf -X POST "$BASE/v1/campaigns" -d "$CAMPAIGN")
ID=$(printf '%s' "$RESP" | sed -n 's/.*"id"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$ID" ] || { echo "FAIL: no campaign id in $RESP"; exit 1; }

set +e
wait "$PID"
CODE=$?
set -e
[ "$CODE" -eq 137 ] || { echo "FAIL: daemon exited $CODE, want chaos crash 137"; exit 1; }
echo "chaos: daemon died with 137 mid-campaign (campaign $ID)"

# --- Phase 2: restart, replay, resume only unfinished cells -------------
start_daemon "$STATE" ""
wait_healthy
wait_campaign "$ID" # a 404 here would mean the original ID was lost

REPLAYED=$(counter "journal.campaigns_replayed")
CACHED=$(counter "campaign.cells_cached")
SOLVES=$(counter "sweep.node_solves")
[ "$REPLAYED" = "1" ] || { echo "FAIL: campaigns_replayed=$REPLAYED, want 1"; exit 1; }
[ "$CACHED" = "1" ] || { echo "FAIL: cells_cached=$CACHED, want 1 (finished cell re-solved?)"; exit 1; }
# 3 remaining cells x 2 solved collocation columns (the ±ξ1 pair of the
# 4 is a rigid shift, K ≡ 1 without a solve); the cached cell adds zero.
[ "$SOLVES" = "6" ] || { echo "FAIL: node_solves=$SOLVES, want 6 (cached cell re-solved?)"; exit 1; }
RESUMED="$WORK/resumed.csv"
curl -sf "$BASE/v1/campaigns/$ID/result?format=csv" >"$RESUMED"
kill "$PID" && wait "$PID" 2>/dev/null || true

# --- Phase 3: uninterrupted reference run, bitwise compare --------------
REF_STATE="$WORK/ref-state"
mkdir -p "$REF_STATE"
start_daemon "$REF_STATE" ""
wait_healthy
RESP=$(curl -sf -X POST "$BASE/v1/campaigns" -d "$CAMPAIGN")
REF_ID=$(printf '%s' "$RESP" | sed -n 's/.*"id"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
[ "$REF_ID" = "$ID" ] || { echo "FAIL: content address drifted: $REF_ID vs $ID"; exit 1; }
wait_campaign "$REF_ID"
REFERENCE="$WORK/reference.csv"
curl -sf "$BASE/v1/campaigns/$REF_ID/result?format=csv" >"$REFERENCE"

cmp -s "$RESUMED" "$REFERENCE" ||
    { echo "FAIL: resumed campaign CSV differs from uninterrupted run"; diff "$RESUMED" "$REFERENCE" || true; exit 1; }

echo "OK: campaign smoke passed (crash 137 -> replay -> resume under $ID, 1 cached cell / 6 solves, bitwise-identical CSV)"
