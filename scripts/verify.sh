#!/bin/sh
# Tier-1 verification: build, vet, full test suite, then the race
# detector over the concurrent packages (worker pools, fallback chain,
# solver cache, the shared FFT plans) in short mode so the whole script
# stays a few minutes.
set -eux

# The same formatting gate as CI: gofmt must list no file.
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "gofmt needed on:" >&2
    echo "$out" >&2
    exit 1
fi
go build ./...
go vet ./...
# The bench module is its own module, so the two lines above never build
# it; vetting it here catches a deleted internal symbol it calls before
# CI's bench step does.
(cd bench && go vet ./...)
# staticcheck when available (CI pin-installs it; local runs without
# network skip it rather than fail).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
go test -race -short ./internal/sscm/... \
    ./internal/resilience/... ./internal/mom/... ./internal/core/... \
    ./internal/server/... ./internal/jobs/... ./internal/rescache/... \
    ./internal/telemetry/... ./internal/sweepengine/... \
    ./internal/surrogate/... ./internal/trace/... ./internal/journal/... \
    ./internal/campaign/... ./internal/cluster/... ./internal/sparams/... \
    ./internal/memo/... ./internal/fft/...
# Fast paper-fidelity gate: reduced-resolution K values of Figs. 3–7 and
# the Table I counts, pinned (the full exhibit tests skip under -short),
# beside the reduced cross-method agreement checks: SWM against SPM2 on a
# small sinusoid and on single KL modes and the first-order SSCM mean
# (the lattice SPM2 arbiter), and 2nd-order SSCM against Monte Carlo;
# and the quotient-lattice solve against the full dense LU on every
# first-order node.
go test -short -count=1 -run 'TestPaperFidelity|TestFig7SSCMMatchesMC' ./internal/experiments/
go test -short -count=1 -run 'TestSWMConvergesToSPM2Kernel|TestLattice' ./internal/spm2/
go test -short -count=1 -run TestQuotientMatchesDenseLU ./internal/mom/
# Fuzz the sweep request decoder and its content addresses briefly: no
# body may panic, and a valid config keeps its key across a round trip.
go test -run '^$' -fuzz FuzzSweepConfigJSON -fuzztime 5s .
# Fuzz the journal replay decoder briefly: no file may panic ReadAll or
# the folds, and every accepted record round-trips through its frame.
go test -run '^$' -fuzz FuzzJournalReadAll -fuzztime 5s ./internal/journal/
# Fuzz the surrogate model decoder briefly: no file may panic Decode or
# the accepted model's evaluations, and accepted models round-trip
# through Encode.
go test -run '^$' -fuzz FuzzSurrogateDecode -fuzztime 5s ./internal/surrogate/
# Fuzz the API request decoder briefly: no body may panic decodeBody or
# the four POSTed configs' defaults and validation, and every accepted
# config round-trips through its JSON encoding.
go test -run '^$' -fuzz FuzzDecodeBody -fuzztime 5s ./internal/server/
# Fuzz the server's disk-tier codecs briefly: no stored entry may panic
# Decode, and every accepted value re-encodes to a fixed point.
go test -run '^$' -fuzz FuzzStoreCodecs -fuzztime 5s ./internal/server/
# Fuzz the Touchstone writer briefly: no z0 or sweep may panic it, and
# every accepted sweep writes two header lines plus one row of 9 finite
# fields per sample.
go test -run '^$' -fuzz FuzzWriteTouchstone -fuzztime 5s ./internal/txline/
# The journal and retry machinery also get a full (non-short) race pass:
# WAL replay and retry-wait races only show up off the fast paths.
go test -race -count=1 ./internal/journal/... ./internal/jobs/... ./internal/cluster/...
# A job's transitions (attempt, retry wait, cancel, drain abandonment,
# terminal observer) and its root span, which must end before its done
# channel closes: the race detector's scheduling makes a bad ordering
# show within a few dozen runs.
go test -race -count=50 -run 'Retry|Drain|Cancel|Observer|TraceSpans' ./internal/jobs/
