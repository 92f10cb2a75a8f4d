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
# End-to-end CLI run: a one-point sweep must exit 0 and print JSON that
# decodes as a roughsim.SweepResult with a finite K.
cli="$(mktemp)"
go run ./cmd/roughsim -grid 8 -dim 2 -fmin 5 -fmax 5 -steps 1 -json >"$cli"
go run ./scripts/checksweep <"$cli"
rm -f "$cli"
# The interconnect example runs the line model the S-parameter service
# ships: every data row (five fields, the first numeric) must show the
# empirical and SWM insertion loss above the smooth one.
go run ./examples/interconnect | awk '
    NF == 5 && $1 ~ /^[0-9.]+$/ { rows++; if (!($3 > $2 && $4 > $2)) { print "rough IL not above smooth: " $0; bad = 1 } }
    END { if (rows == 0 || bad) exit 1 }'
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
# Fuzz the dielectric's real-arithmetic Ewald sum briefly: no offset,
# real k or period may panic it, and every result is finite and agrees
# with the complex Ewald path within 1e-12 of the largest image term.
go test -run '^$' -fuzz FuzzRealKEwald -fuzztime 5s ./internal/greens/
# The journal and retry machinery also get a full (non-short) race pass:
# WAL replay and retry-wait races only show up off the fast paths.
go test -race -count=1 ./internal/journal/... ./internal/jobs/... ./internal/cluster/...
# A job's transitions (attempt, retry wait, cancel, drain abandonment,
# terminal observer) and its root span, which must end before its done
# channel closes: the race detector's scheduling makes a bad ordering
# show within a few dozen runs.
go test -race -count=50 -run 'Retry|Drain|Cancel|Observer|TraceSpans' ./internal/jobs/
# A single-flight run its own caller's ctx stopped must not end the
# waiters that joined it: they retry under their live ctx. The race
# detector's scheduling varies who joins and who recomputes.
go test -race -count=20 -run TestStoppedRunRetriedByLiveWaiters ./internal/memo/
# The two sizes ROADMAP tracks, printed last so every change quotes the
# same measurement: non-test Go lines outside bench/ and non-test
# panic( sites under internal/.
set +x
echo "non-test Go lines outside bench/: $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
echo "non-test panic( sites under internal/: $(grep -ro --include='*.go' --exclude='*_test.go' 'panic(' internal | wc -l)"
