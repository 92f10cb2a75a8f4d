#!/bin/sh
# Chaos smoke test: boot roughsimd with the write-ahead journal and the
# crash injector armed at the 2nd checkpoint save, submit a sweep, and
# watch the daemon die mid-job with the SIGKILL-like status 137. Then
# restart it against the same journal + cache dirs and require the full
# durability contract:
#   - the job is replayed under its original ID and succeeds;
#   - the column checkpointed before the crash is NOT re-solved
#     (sweep.checkpoint_hits / sweep.node_solves prove it);
#   - the result is byte-identical to an uninterrupted reference run.
set -eu

PORT="${SMOKE_PORT:-18090}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
BIN="$WORK/roughsimd"
STATE="$WORK/state"
mkdir -p "$STATE"

go build -o "$BIN" ./cmd/roughsimd

SWEEP='{
  "surface":  {"cf": "gaussian", "sigma": 4e-7, "eta": 1e-6},
  "accuracy": {"grid": 8, "dim": 2},
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

wait_succeeded() { # $1 = job id
    i=0
    while :; do
        STATUS=$(curl -sf "$BASE/v1/sweeps/$1" | sed -n 's/.*"status"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
        case "$STATUS" in
        succeeded) break ;;
        failed | canceled) echo "FAIL: job $1 ended $STATUS"; exit 1 ;;
        esac
        i=$((i + 1))
        [ "$i" -le 300 ] || { echo "FAIL: job $1 did not finish"; exit 1; }
        sleep 0.2
    done
}

counter() { # $1 = counter name; reads JSON /metrics
    curl -sf "$BASE/metrics" |
        sed -n 's/.*"'"$1"'"[: ]*\([0-9][0-9]*\).*/\1/p' | head -n 1
}

trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

# --- Phase 1: crash at the 2nd checkpoint save --------------------------
start_daemon "$STATE" "sweep.checkpoint:2"
wait_healthy
JOB=$(curl -sf -X POST "$BASE/v1/sweeps" -d "$SWEEP")
ID=$(printf '%s' "$JOB" | sed -n 's/.*"id"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$ID" ] || { echo "FAIL: no job id in $JOB"; exit 1; }

set +e
wait "$PID"
CODE=$?
set -e
[ "$CODE" -eq 137 ] || { echo "FAIL: daemon exited $CODE, want chaos crash 137"; exit 1; }
echo "chaos: daemon died with 137 mid-sweep (job $ID)"

# --- Phase 2: restart, replay, resume -----------------------------------
start_daemon "$STATE" ""
wait_healthy
wait_succeeded "$ID"

REPLAYED=$(counter "journal.jobs_replayed")
HITS=$(counter "sweep.checkpoint_hits")
SOLVES=$(counter "sweep.node_solves")
[ "$REPLAYED" = "1" ] || { echo "FAIL: jobs_replayed=$REPLAYED, want 1"; exit 1; }
[ "$HITS" = "1" ] || { echo "FAIL: checkpoint_hits=$HITS, want 1"; exit 1; }
# Of the 4 collocation columns the ±ξ1 pair is a rigid shift (K ≡ 1, no
# solve, no checkpoint); of the 2 solved ones 1 was checkpointed.
[ "$SOLVES" = "1" ] || { echo "FAIL: node_solves=$SOLVES, want 1 (checkpointed column re-solved?)"; exit 1; }
# The breaker publishes its state (0 = closed on a healthy daemon).
BRK=$(curl -sf "$BASE/metrics" | sed -n 's/.*"breaker\.state"[: ]*\([0-9][0-9.]*\).*/\1/p' | head -n 1)
[ "$BRK" = "0" ] || { echo "FAIL: breaker.state=$BRK, want 0 (closed)"; exit 1; }
RESUMED="$WORK/resumed.json"
curl -sf "$BASE/v1/sweeps/$ID/result" >"$RESUMED"
kill "$PID" && wait "$PID" 2>/dev/null || true

# --- Phase 3: uninterrupted reference run, bitwise compare --------------
REF_STATE="$WORK/ref-state"
mkdir -p "$REF_STATE"
start_daemon "$REF_STATE" ""
wait_healthy
JOB=$(curl -sf -X POST "$BASE/v1/sweeps" -d "$SWEEP")
REF_ID=$(printf '%s' "$JOB" | sed -n 's/.*"id"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
wait_succeeded "$REF_ID"
REFERENCE="$WORK/reference.json"
curl -sf "$BASE/v1/sweeps/$REF_ID/result" >"$REFERENCE"

cmp -s "$RESUMED" "$REFERENCE" ||
    { echo "FAIL: resumed result differs from uninterrupted run"; diff "$RESUMED" "$REFERENCE" || true; exit 1; }

echo "OK: chaos smoke passed (crash 137 -> replay -> resume, 1 hit / 1 solve, bitwise-identical result)"
