package campaign

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roughsim"
)

var update = flag.Bool("update", false, "rewrite the CSV golden file")

// goldenArtifact is a fixed two-cell artifact (one flat, one rough with
// hand-scripted SWM values beside the SPM2 and empirical K the
// simulation stores for that cell) whose CSV encoding is pinned by a
// golden file: any drift in column order, float formatting or the
// baseline columns shows up as a byte diff.
func goldenArtifact() *Artifact {
	stack := roughsim.CopperSiO2()
	freqs := []float64{1e9, 5e9}
	flat := CellResult{
		Index: 0, Stack: stack,
		Spec:   roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 0, Eta: 1e-6},
		Status: CellDone,
		Points: []roughsim.SweepPoint{
			{FreqHz: 1e9, SkinDepthM: stack.SkinDepth(1e9), KSWM: 1, KSPM2: 1, KEmpirical: 1},
			{FreqHz: 5e9, SkinDepthM: stack.SkinDepth(5e9), KSWM: 1, KSPM2: 1, KEmpirical: 1},
		},
	}
	rough := CellResult{
		Index: 1, Stack: stack,
		Spec:   roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
		Status: CellDone,
		Points: []roughsim.SweepPoint{
			{FreqHz: 1e9, SkinDepthM: stack.SkinDepth(1e9), KSWM: 1.0625,
				KSPM2: 1.0487932598415766, KEmpirical: 1.0336795262898926},
			{FreqHz: 5e9, SkinDepthM: stack.SkinDepth(5e9), KSWM: 1.25,
				KSPM2: 1.1433293750587405, KEmpirical: 1.1647740959225203},
		},
	}
	return &Artifact{
		ID: "golden", Status: StatusSucceeded, FreqsHz: freqs,
		Cells: []CellResult{flat, rough},
	}
}

func TestCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenArtifact().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("CSV drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestCSVDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenArtifact().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenArtifact().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same artifact differ")
	}
}

func TestCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenArtifact().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 { // header + 2 cells × 2 freqs
		t.Fatalf("%d lines, want 5:\n%s", len(lines), buf.String())
	}
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	for i, ln := range lines[1:] {
		if n := strings.Count(ln, ","); n != strings.Count(csvHeader, ",") {
			t.Fatalf("row %d has %d separators: %q", i, n, ln)
		}
	}
	// Flat rows: K ≡ 1 across SWM and every baseline column.
	row := strings.Split(lines[1], ",")
	for _, col := range []int{10, 11, 12, 13} {
		if row[col] != "1" {
			t.Fatalf("flat row column %d = %q, want 1", col, row[col])
		}
	}
}

// FromSweep routes a single sweep through the same encoder.
func TestCSVFromSweep(t *testing.T) {
	cfg := roughsim.SweepConfig{
		Stack: roughsim.CopperSiO2(),
		Spec:  roughsim.SurfaceSpec{Corr: roughsim.ExponentialCF, Sigma: 0.4e-6, Eta: 1e-6},
		Freqs: []float64{2e9},
	}
	res := &roughsim.SweepResult{Config: cfg, Points: []roughsim.SweepPoint{
		{FreqHz: 2e9, SkinDepthM: 1.47e-6, KSWM: 1.1, KSPM2: 1.09, KEmpirical: 1.08},
	}}
	var buf bytes.Buffer
	if err := FromSweep(res).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[1], "0,exp,4e-07,1e-06,") {
		t.Fatalf("row = %q", lines[1])
	}
}

// Non-finite values become empty fields, never "NaN" tokens.
func TestCSVNonFiniteEmpty(t *testing.T) {
	if num(math.NaN()) != "" || num(math.Inf(1)) != "" {
		t.Fatal("non-finite values must encode as empty fields")
	}
	if num(1.25e-6) != "1.25e-06" {
		t.Fatalf("num(1.25e-6) = %q", num(1.25e-6))
	}
	// A stored non-finite baseline (an out-of-domain empirical K) writes
	// an empty field in its row.
	art := goldenArtifact()
	art.Cells[1].Points[0].KEmpirical = math.NaN()
	var buf bytes.Buffer
	if err := art.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	row := strings.Split(strings.Split(buf.String(), "\n")[3], ",")
	if row[13] != "" || row[11] != "1.0487932598415766" {
		t.Fatalf("row with a NaN empirical K = %q", row)
	}
}
