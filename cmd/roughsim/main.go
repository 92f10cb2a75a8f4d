// Command roughsim computes the surface-roughness loss enhancement
// factor K(f) = Pr/Ps for a configurable surface process and prints a
// frequency sweep comparing the SWM solver against the analytic
// baselines (SPM2 and the Morgan/Hammerstad empirical formula).
//
// Usage:
//
//	roughsim [-sigma 1.0] [-eta 1.0] [-cf gaussian|exp|measured]
//	         [-eta2 0.53] [-fmin 1] [-fmax 9] [-steps 9] [-grid 16] [-dim 16]
//	         [-timeout 0] [-json] [-csv out.csv] [-trace]
//	         [-surrogate-out model.json] [-surrogate-in model.json]
//	         [-campaign grid.json] [-sparams req.json -s2p out.s2p]
//
// Lengths are in micrometers, frequencies in GHz. The sweep honors
// Ctrl-C and the -timeout budget: cancellation stops the run promptly
// between solves instead of abandoning a half-printed table.
//
// With -json the sweep is emitted as a machine-readable
// roughsim.SweepResult — the exact record schema the roughsimd result
// endpoint returns, so CLI and service outputs are directly diffable.
//
// -surrogate-out fits a broadband K(f) surrogate over [fmin, fmax]
// through the exact solver, validates it at held-out frequencies and
// writes the admitted model to the given file instead of sweeping.
// -surrogate-in loads such a model and serves the sweep from it with
// no solver in the loop — the CLI twin of roughsimd's GET /k fast
// path.
//
// -campaign runs a parameter campaign from a JSON grid file (the
// roughsim.CampaignConfig schema roughsimd's POST /v1/campaigns
// accepts): the grid expands into deduplicated cells that solve
// in-process, and the combined artifact lands on stdout (JSON) or, with
// -csv, as CSV with one row per (cell, frequency) carrying the
// SPM2/HBM/empirical comparison columns. -csv also works for a single
// sweep — both shapes share one encoder.
//
// -sparams generates a validated two-port Touchstone artifact from a
// JSON request file (the roughsim.SParamConfig schema roughsimd's
// POST /v1/sparams accepts): K(f) resolves through the exact solver —
// or through a fitted surrogate model given with -surrogate-in — then
// the causal roughness-corrected line cascades to S-parameters and must
// pass the passivity and causality gates. The artifact JSON lands on
// stdout; -s2p additionally writes the raw .s2p body to a file (- for
// stdout, replacing the JSON).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"roughsim"
	"roughsim/internal/campaign"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

func main() {
	var (
		sigma   = flag.Float64("sigma", 1.0, "RMS roughness σ (μm)")
		eta     = flag.Float64("eta", 1.0, "correlation length η (μm)")
		eta2    = flag.Float64("eta2", 0.53, "second correlation length for -cf measured (μm)")
		cf      = flag.String("cf", "gaussian", "correlation function: gaussian|exp|measured")
		fmin    = flag.Float64("fmin", 1, "start frequency (GHz)")
		fmax    = flag.Float64("fmax", 9, "end frequency (GHz)")
		steps   = flag.Int("steps", 9, "number of frequency points")
		grid    = flag.Int("grid", 16, "patch grid per side (paper: 40)")
		dim     = flag.Int("dim", 16, "stochastic (KL) dimension")
		timeout = flag.Duration("timeout", 0, "total sweep budget (e.g. 90s); 0 means no limit")
		asJSON  = flag.Bool("json", false, "emit the sweep as JSON (the roughsimd record schema)")
		showTr  = flag.Bool("trace", false, "print a per-stage timing breakdown to stderr after the sweep")
		surOut  = flag.String("surrogate-out", "", "fit a K(f) surrogate over [fmin, fmax] and write the model to this file (no sweep)")
		surIn   = flag.String("surrogate-in", "", "serve the sweep from a fitted surrogate model file (no solver)")
		campIn  = flag.String("campaign", "", "run a parameter campaign from this JSON grid file (roughsim.CampaignConfig) instead of a single sweep")
		sparIn  = flag.String("sparams", "", "generate a gated Touchstone artifact from this JSON request file (roughsim.SParamConfig) instead of sweeping")
		s2pOut  = flag.String("s2p", "", "with -sparams: write the raw .s2p body to this file; - for stdout (suppresses the artifact JSON)")
		csvOut  = flag.String("csv", "", "also write the result as CSV (one row per cell and frequency, with SPM2/HBM/empirical comparison columns) to this file; - for stdout")
	)
	flag.Parse()

	ctxRoot, stopRoot := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopRoot()

	if *campIn != "" {
		runCampaign(ctxRoot, *campIn, *csvOut, *asJSON)
		return
	}
	if *sparIn != "" {
		ctx := ctxRoot
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		runSParams(ctx, *sparIn, *s2pOut, *surIn)
		return
	}

	kind, err := roughsim.ParseCFKind(*cf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roughsim: unknown -cf %q\n", *cf)
		os.Exit(2)
	}
	spec := roughsim.SurfaceSpec{Corr: kind, Sigma: *sigma * 1e-6, Eta: *eta * 1e-6}
	if kind == roughsim.MeasuredCF {
		spec.Eta2 = *eta2 * 1e-6
	}

	freqs := make([]float64, *steps)
	for i := range freqs {
		fGHz := *fmin
		if *steps > 1 {
			fGHz += (*fmax - *fmin) * float64(i) / float64(*steps-1)
		}
		freqs[i] = fGHz * 1e9
	}
	sim, err := roughsim.NewSimulation(roughsim.CopperSiO2(), spec, roughsim.Accuracy{
		GridPerSide: *grid, StochasticDim: *dim,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
	metrics := telemetry.NewRegistry()
	sim.WithMetrics(metrics)

	ctx := ctxRoot
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	surCfg := roughsim.SurrogateConfig{Spec: spec, Acc: roughsim.Accuracy{GridPerSide: *grid, StochasticDim: *dim},
		FMinHz: *fmin * 1e9, FMaxHz: *fmax * 1e9}

	if *surOut != "" {
		sur, err := roughsim.FitSurrogate(ctx, surCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim: surrogate fit:", err)
			os.Exit(1)
		}
		b, err := sur.Encode()
		if err == nil {
			err = os.WriteFile(*surOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "roughsim: surrogate admitted (max rel err %.3g, %d exact solves) → %s\n",
			sur.MaxRelErr(), sur.SolvePoints(), *surOut)
		return
	}

	if *surIn != "" {
		b, err := os.ReadFile(*surIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		sur, err := roughsim.DecodeSurrogate(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		if sur.Key() != surCfg.Key().String() {
			fmt.Fprintf(os.Stderr, "roughsim: warning: %s was fitted for a different configuration than these flags\n", *surIn)
		}
		res := &roughsim.SweepResult{Config: roughsim.SweepConfig{Stack: roughsim.CopperSiO2(), Spec: spec, Acc: surCfg.Acc, Freqs: freqs}}
		for _, f := range freqs {
			k, err := sur.MeanAt(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "roughsim:", err)
				os.Exit(1)
			}
			res.Points = append(res.Points, roughsim.SweepPoint{
				FreqHz:     f,
				SkinDepthM: roughsim.CopperSiO2().SkinDepth(f),
				KSWM:       k,
				KSPM2:      sim.SPM2LossFactor(f),
				KEmpirical: sim.EmpiricalLossFactor(f),
			})
		}
		if *csvOut != "-" { // -csv - owns stdout
			emit(res, *asJSON, *sigma, *eta, kind, *grid, *dim)
		}
		writeSweepCSV(res, *csvOut)
		return
	}

	var tr *trace.Trace
	if *showTr {
		tr = trace.New("cli")
		ctx = trace.ContextWithSpan(ctx, tr.Root())
	}
	start := time.Now()
	res, err := sim.RunSweepBatched(ctx, freqs)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "%v (stopped after %v)\n", err, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
		}
		os.Exit(1)
	}

	if tr != nil {
		tr.Finish()
		fmt.Fprintf(os.Stderr, "per-stage breakdown (%.3fs total):\n", tr.Stages().DurationSeconds)
		for _, st := range tr.Stages().Stages {
			if st.Name == "job" {
				continue
			}
			fmt.Fprintf(os.Stderr, "  %-18s x%-5d %9.4fs\n", st.Name, st.Count, st.Seconds)
		}
	}

	if *csvOut != "-" { // -csv - owns stdout
		emit(res, *asJSON, *sigma, *eta, kind, *grid, *dim)
	}
	writeSweepCSV(res, *csvOut)
	if fallbacks := metrics.Counter("solve.fallbacks").Value(); fallbacks > 0 {
		wins := map[string]int64{}
		for name, n := range metrics.Snapshot().Counters {
			if stage, ok := strings.CutPrefix(name, "solve.stage_win."); ok {
				wins[stage] = n
			}
		}
		fmt.Fprintf(os.Stderr, "roughsim: %d of %d solves needed the fallback chain (wins: %v)\n",
			fallbacks, metrics.Counter("solve.count").Value(), wins)
	}
}

// runSParams generates one gated Touchstone artifact from a JSON
// request file. K(f) resolves through the exact solver, or through a
// surrogate model file when -surrogate-in is also given (the CLI twin
// of roughsimd's surrogate fast path).
func runSParams(ctx context.Context, path, s2pPath, surPath string) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
	var cfg roughsim.SParamConfig
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "roughsim: %s: %v\n", path, err)
		os.Exit(1)
	}
	cfg = cfg.WithDefaults()

	var art *roughsim.SParamArtifact
	if surPath != "" {
		sb, err := os.ReadFile(surPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		sur, err := roughsim.DecodeSurrogate(sb)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		art, err = roughsim.GenerateSParamsWith(ctx, cfg, sur.Resolver())
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim: sparams:", err)
			os.Exit(1)
		}
	} else {
		art, err = roughsim.GenerateSParams(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim: sparams:", err)
			os.Exit(1)
		}
	}

	fmt.Fprintf(os.Stderr, "roughsim: artifact %s… (%d points %g–%g GHz, K via %s): %s\n",
		art.Key[:12], art.Points, art.FMinHz/1e9, art.FMaxHz/1e9, art.Source, art.Gates)
	if s2pPath != "" {
		out := os.Stdout
		if s2pPath != "-" {
			f, err := os.Create(s2pPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "roughsim:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if _, err := fmt.Fprint(out, art.Touchstone); err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
}

// runCampaign executes a parameter campaign from a JSON grid file:
// cells expand, dedupe and solve in-process (one at a time, each solve
// parallelized internally), then the combined artifact is written as
// JSON (stdout) and, with -csv, as CSV.
func runCampaign(ctx context.Context, path, csvPath string, asJSON bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
	var cfg roughsim.CampaignConfig
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "roughsim: %s: %v\n", path, err)
		os.Exit(1)
	}
	eng := campaign.NewEngine(campaign.Options{
		Runner:  campaign.LocalRunner{},
		Metrics: telemetry.NewRegistry(),
	})
	c, _, err := eng.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
	go func() {
		<-ctx.Done()
		c.Cancel()
	}()
	<-c.Done()
	agg := c.Aggregate(false)
	fmt.Fprintf(os.Stderr, "roughsim: campaign %s: %s (%d cells: %d done, %d failed; %d duplicates folded)\n",
		c.ID[:12], agg.Status, agg.CellsTotal, agg.CellsDone, agg.CellsFailed, agg.DuplicatesFolded)
	art := c.Artifact()
	if csvPath != "" {
		writeCSV(art, csvPath)
	}
	if csvPath == "" || asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(art); err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
	}
	if agg.Status != campaign.StatusSucceeded {
		os.Exit(1)
	}
}

// writeSweepCSV exports a single sweep through the campaign CSV encoder
// (one encoder for both shapes), when -csv was given.
func writeSweepCSV(res *roughsim.SweepResult, csvPath string) {
	if csvPath == "" {
		return
	}
	writeCSV(campaign.FromSweep(res), csvPath)
}

func writeCSV(art *campaign.Artifact, path string) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := art.WriteCSV(out); err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
}

// emit prints the sweep as JSON or as the human-readable table.
func emit(res *roughsim.SweepResult, asJSON bool, sigma, eta float64, kind roughsim.CFKind, grid, dim int) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "roughsim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("SWM roughness loss sweep: σ=%g μm, η=%g μm, CF=%s, grid %d², d=%d\n",
		sigma, eta, kind, grid, dim)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "f (GHz)\tδ (μm)\tSWM K\tSPM2 K\tempirical K")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%.3g\t%.3f\t%.4f\t%.4f\t%.4f\n",
			p.FreqHz/1e9, p.SkinDepthM*1e6, p.KSWM, p.KSPM2, p.KEmpirical)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "roughsim:", err)
		os.Exit(1)
	}
}
