package main

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roughsim/internal/cluster"
	"roughsim/internal/server"
	"roughsim/internal/telemetry"
)

// clusterConfig maps the role flags onto server.ClusterConfig ("single"
// is the zero role; anything else passes through for server.New to
// validate).
func clusterConfig(role, self, peers string, ttl time.Duration, maxLosses int) server.ClusterConfig {
	if role == "single" {
		role = ""
	}
	var peerURLs []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerURLs = append(peerURLs, p)
		}
	}
	return server.ClusterConfig{
		Role:          role,
		SelfURL:       self,
		Peers:         peerURLs,
		LeaseTTL:      ttl,
		MaxTaskLosses: maxLosses,
	}
}

// runWorker is the -role=worker main: no HTTP server, just the claim →
// solve → complete loop against the coordinator, draining gracefully on
// SIGINT/SIGTERM (the in-flight column gets the drain budget to finish
// and report before the process leaves).
func runWorker(log *slog.Logger, coordinator, id string, poll, grace time.Duration) int {
	metrics := telemetry.NewRegistry()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: coordinator,
		ID:          id,
		Poll:        poll,
		Grace:       grace,
		Metrics:     metrics,
		Log:         log,
		Solve:       cluster.NewColumns(metrics, nil).Solve,
	})
	if err != nil {
		log.Error("worker startup failed", "err", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Error("worker failed", "err", err)
		return 1
	}
	return 0
}
