package sparams

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/txline"
)

// linearGrid returns n points from lo to hi, the service's grid rule.
func linearGrid(n int, lo, hi float64) []float64 {
	fs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range fs {
		fs[i] = lo + float64(i)*step
	}
	fs[n-1] = hi
	return fs
}

// request256 is a fixed 256-point request over 1–9 GHz.
func request256() Request {
	req := testRequest()
	req.Freqs = linearGrid(256, 1e9, 9e9)
	return req
}

// sequentialTouchstone is the one-goroutine reference pipeline: the
// causal factor and the cascade evaluated per frequency in grid order.
func sequentialTouchstone(t *testing.T, req Request) string {
	t.Helper()
	causal, err := txline.NewCausalRoughness(req.Freqs, risingK(req.Freqs))
	if err != nil {
		t.Fatal(err)
	}
	sweep := make([]txline.SParams, len(req.Freqs))
	for i, f := range req.Freqs {
		r, l, c, g, err := req.Line.RLGC(f, causal.Factor(f))
		if err != nil {
			t.Fatal(err)
		}
		abcd, err := txline.LineABCD(f, req.LengthM, r, l, c, g)
		if err != nil {
			t.Fatal(err)
		}
		sweep[i] = txline.SParams{F: f, S11: abcd.S11(req.Z0), S21: abcd.S21(req.Z0)}
	}
	var buf bytes.Buffer
	if err := txline.WriteTouchstone(&buf, req.Z0, sweep); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// touchstone256SHA is the SHA-256 of request256's Touchstone body as
// written by the sequential per-node-lookup pipeline the parallel
// correct phase replaced; a change to K, X or the cascade moves it.
const touchstone256SHA = "4843495b9cf686d01466f76cf4bc1117165a9e2d83c5dafe826d57ab46d330d8"

// TestGenerateIndependentOfWorkers: the parallel correct phase writes
// each frequency's slot alone, so the Touchstone bytes are the
// sequential reference's at any GOMAXPROCS.
func TestGenerateIndependentOfWorkers(t *testing.T) {
	req := request256()
	want := sequentialTouchstone(t, req)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != touchstone256SHA {
		t.Fatalf("reference Touchstone sha256 %s, want %s", got, touchstone256SHA)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		art, err := Generate(context.Background(), req, fakeResolver("exact", 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if art.Touchstone != want {
			t.Fatalf("GOMAXPROCS=%d: Touchstone differs from the sequential reference", procs)
		}
	}
}

// TestGenerateCanceledDuringCorrect: a context cancelled while the
// correct phase runs stops it promptly with a canceled error; the
// cascade never runs.
func TestGenerateCanceledDuringCorrect(t *testing.T) {
	// At two workers the full phase on this grid, 4·10⁸ quadrature
	// nodes, takes well over a second.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	req := testRequest()
	req.Freqs = linearGrid(100000, 1e9, 9e9)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := Resolver(func(_ context.Context, freqs []float64) (Resolution, error) {
		time.AfterFunc(50*time.Millisecond, cancel)
		return Resolution{K: risingK(freqs), Source: "exact"}, nil
	})
	start := time.Now()
	_, err := Generate(ctx, req, res, nil)
	elapsed := time.Since(start)
	if resilience.Classify(err) != resilience.KindCanceled {
		t.Fatalf("expected a canceled error, got %v", err)
	}
	if !strings.Contains(err.Error(), "causal correction") {
		t.Fatalf("cancellation did not stop the correct phase: %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled correct phase took %v to return", elapsed)
	}
}

var benchArtifact *Artifact

// BenchmarkGenerate: one 256-point 4–6 GHz request with a fixed K
// profile, the shape of the service's S-parameter jobs.
func BenchmarkGenerate(b *testing.B) {
	req := testRequest()
	req.Freqs = linearGrid(256, 4e9, 6e9)
	res := fakeResolver("surrogate", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, err := Generate(context.Background(), req, res, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchArtifact = art
	}
}
