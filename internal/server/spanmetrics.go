package server

import (
	"sync"
	"time"

	"roughsim/internal/telemetry"
)

// stageSeconds is the per-stage histogram, labeled stage=<span name>.
const stageSeconds = "sweep.stage_seconds"

// spanHistograms is the one map from span names to the histograms a
// span's End feeds, so /metrics and the traces read one clock. Spans
// not listed feed none; intervals no span covers exactly keep direct
// observations at their sites (DESIGN §10).
var spanHistograms = map[string][]string{
	"mom.solve":        {"solve.seconds", stageSeconds},
	"mom.fft.build":    {"mom.fft.build_seconds", stageSeconds},
	"mom.assemble":     {stageSeconds},
	"flat.reference":   {stageSeconds},
	"sweep.synthesize": {stageSeconds},
	"sweep.exact":      {stageSeconds},
	"sweep.interp":     {stageSeconds},
	"surrogate.fit":    {stageSeconds}, // the sweep engine's PC projection

	"tables.build":        {"tables.build_seconds"},
	"mom.fft.solve":       {"mom.fft.solve_seconds"},
	"surrogate.model_fit": {"surrogate.fit_seconds"},
	"surrogate.validate":  {"surrogate.validate_seconds"},
	"campaign.plan":       {"campaign.plan_seconds"},
}

// spanSink feeds m through spanHistograms. Each histogram is resolved
// once, at its span's first End, so /metrics lists only stages that ran.
func spanSink(m *telemetry.Registry) func(span string, d time.Duration) {
	hists := map[string][]func() *telemetry.Histogram{}
	for span, names := range spanHistograms {
		for _, name := range names {
			var labels []telemetry.Label
			if name == stageSeconds {
				labels = []telemetry.Label{telemetry.L("stage", span)}
			}
			hists[span] = append(hists[span], sync.OnceValue(func() *telemetry.Histogram {
				return m.HistogramL(name, nil, labels...)
			}))
		}
	}
	return func(span string, d time.Duration) {
		for _, h := range hists[span] {
			h().Observe(d.Seconds())
		}
	}
}
