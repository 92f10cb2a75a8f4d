#!/bin/sh
# Tier-1 verification: build, vet, full test suite, then the race
# detector over the concurrent packages (worker pools, fallback chain,
# solver cache, the shared FFT plans) in short mode so the whole script
# stays a few minutes.
set -eux

go build ./...
go vet ./...
# staticcheck when available (CI pin-installs it; local runs without
# network skip it rather than fail).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
go test -race -short ./internal/montecarlo/... ./internal/sscm/... \
    ./internal/resilience/... ./internal/mom/... ./internal/core/... \
    ./internal/server/... ./internal/jobs/... ./internal/rescache/... \
    ./internal/telemetry/... ./internal/sweepengine/... \
    ./internal/surrogate/... ./internal/trace/... ./internal/journal/... \
    ./internal/campaign/... ./internal/cluster/... ./internal/sparams/... \
    ./internal/memo/... ./internal/fft/...
# Fast paper-fidelity gate: reduced-resolution K values of Figs. 3–7 and
# the Table I counts, pinned (the full exhibit tests skip under -short).
go test -short -count=1 -run TestPaperFidelity ./internal/experiments/
# The journal and retry machinery also get a full (non-short) race pass:
# WAL replay and backoff-requeue races only show up off the fast paths.
go test -race -count=1 ./internal/journal/... ./internal/jobs/... ./internal/cluster/...
