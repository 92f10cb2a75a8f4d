#!/bin/sh
# Observability smoke test: boot roughsimd, run one tiny sweep, scrape
# /metrics in Prometheus text format, and fail on exposition parse
# errors or absent per-stage histograms. Exercises the same surface a
# real Prometheus scraper + trace consumer would.
set -eu

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/roughsimd"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/roughsimd

"$BIN" -addr "127.0.0.1:$PORT" -workers 1 -pprof &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

# Wait for liveness.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "FAIL: daemon did not come up"; exit 1; }
    sleep 0.2
done

# Submit a tiny sweep (8x8 grid, d=2, two frequencies) and wait for it.
JOB=$(curl -sf -X POST "$BASE/v1/sweeps" -d '{
  "surface":  {"cf": "gaussian", "sigma": 4e-7, "eta": 1e-6},
  "accuracy": {"grid": 8, "dim": 2},
  "freqs_hz": [5e9, 8e9]
}')
ID=$(printf '%s' "$JOB" | sed -n 's/.*"id"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$ID" ] || { echo "FAIL: no job id in $JOB"; exit 1; }

i=0
while :; do
    STATUS=$(curl -sf "$BASE/v1/sweeps/$ID" | sed -n 's/.*"status"[: ]*"\([^"]*\)".*/\1/p' | head -n 1)
    case "$STATUS" in
    succeeded) break ;;
    failed | canceled) echo "FAIL: job ended $STATUS"; exit 1 ;;
    esac
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "FAIL: job did not finish"; exit 1; }
    sleep 0.2
done

# The trace endpoint must serve the job's span tree.
curl -sf "$BASE/debug/trace/$ID" | grep -q '"name": *"job"' ||
    { echo "FAIL: /debug/trace/$ID has no root span"; exit 1; }

# The spans bench/metrics.go turns into per-layer metrics must keep
# their names: a rename would blank a benchmark column. This sweep's
# flat reference builds the frequency's tables, and its nodes build on
# the quotient lattice (mom.assemble).
TRACE="$(curl -sf "$BASE/debug/trace/$ID")"
for span in flat.reference mom.assemble tables.build mom.solve; do
    printf '%s' "$TRACE" | grep -q "\"name\": *\"$span\"" ||
        { echo "FAIL: /debug/trace/$ID has no $span span"; exit 1; }
done

# GET /k checks the frequency against the exact sweep's domain (finite,
# > 0, <= 1e15 Hz) before it looks the key up.
ZERO=0000000000000000000000000000000000000000000000000000000000000000
for f in Inf 2e15; do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/k?key=$ZERO&f=$f")
    [ "$CODE" = 400 ] || { echo "FAIL: GET /k f=$f answered $CODE, want 400"; exit 1; }
done

# pprof is mounted (we started with -pprof).
curl -sf "$BASE/debug/pprof/" >/dev/null ||
    { echo "FAIL: pprof index unreachable"; exit 1; }

# Scrape the Prometheus exposition and validate it.
METRICS="$(mktemp)"
curl -sf "$BASE/metrics?format=prometheus" >"$METRICS"

# Line-level format check: every non-comment line is <name>[{...}] <value>;
# comments are "# TYPE <name> <kind>".
awk '
    /^$/ { next }
    /^#/ {
        if ($2 != "TYPE" || NF != 4) { print "bad comment line " NR ": " $0; bad = 1 }
        next
    }
    {
        if (NF != 2) { print "bad sample line " NR ": " $0; bad = 1; next }
        if ($1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$/) { print "bad series " NR ": " $0; bad = 1 }
        if ($2 !~ /^[-+0-9.eE]+$/ && $2 != "+Inf" && $2 != "NaN") { print "bad value " NR ": " $0; bad = 1 }
    }
    END { exit bad }
' "$METRICS" || { echo "FAIL: Prometheus exposition does not parse"; exit 1; }

# The per-stage histograms must be present after a sweep.
for want in \
    "# TYPE queue_wait_seconds histogram" \
    "# TYPE sweep_stage_seconds histogram" \
    'sweep_stage_seconds_bucket{stage="mom.solve",le="+Inf"}' \
    'sweep_stage_seconds_bucket{stage="sweep.synthesize",le="+Inf"}' \
    "queue_wait_seconds_count"; do
    grep -qF "$want" "$METRICS" ||
        { echo "FAIL: exposition missing: $want"; cat "$METRICS"; exit 1; }
done

echo "OK: observability smoke passed (job $ID)"
