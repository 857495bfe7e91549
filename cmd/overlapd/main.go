// Command overlapd serves the characterization harness over HTTP/JSON:
// synchronous single experiments, asynchronous sweep and advisor jobs
// with progress polling, SSE streams and cancellation, and catalog
// discovery, all backed by one content-addressed result cache
// (optionally persisted to disk). Operational surfaces — Prometheus
// metrics, a JSON stats mirror, optional pprof, structured request logs
// — are documented in the README's "Operating overlapd" section;
// -state-dir durability in "Scaling out".
//
// Example:
//
//	overlapd -addr :8080 -state-dir .overlapd &
//	curl -s localhost:8080/v1/catalog
//	curl -s -X POST localhost:8080/v1/experiments \
//	    -d '{"gpu":"H100","model":"GPT-3 XL","parallelism":"fsdp","batch":16}'
//	curl -s -X POST localhost:8080/v1/sweeps -d @examples/sweeps/paper_grid.json
//	curl -s localhost:8080/v1/sweeps/sweep-000001
//	curl -sN localhost:8080/v1/sweeps/sweep-000001/events
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"overlapsim/internal/hw"
	"overlapsim/internal/service"
	"overlapsim/internal/store"
	"overlapsim/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overlapd: ")

	var (
		addr        = flag.String("addr", ":8080", "listen address")
		hwFile      = flag.String("hw-file", "", "load custom GPUs/systems from this JSON file into the served catalog")
		cacheDir    = flag.String("cache", "", "content-addressed cache directory (empty = in-memory, or <state-dir>/cache with -state-dir)")
		stateDir    = flag.String("state-dir", "", "durable state directory: job journal (and default cache) live here, so jobs survive restarts")
		workers     = flag.Int("workers", 0, "concurrent simulations per sweep (0 = NumCPU)")
		maxPts      = flag.Int("max-points", service.DefaultMaxSweepPoints, "largest sweep grid a job may submit")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		enablePprof = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget: how long to wait for in-flight requests and jobs")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	if *hwFile != "" {
		if err := hw.LoadFile(*hwFile); err != nil {
			log.Fatal(err)
		}
	}

	// Memory in front, optionally a durable directory behind it.
	// -state-dir implies a durable cache — resumed jobs depend on it to
	// skip the points that completed before the restart.
	if *cacheDir == "" && *stateDir != "" {
		*cacheDir = filepath.Join(*stateDir, "cache")
	}
	cache, err := store.Compose(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}

	var journal *store.Journal
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatal(err)
		}
		journal, err = store.OpenJournal(filepath.Join(*stateDir, "jobs.journal"))
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		logger.Info("job journal open",
			slog.String("path", journal.Path()),
			slog.Int("records", len(journal.Records())),
			slog.Int64("skipped_bytes", journal.SkippedBytes()))
	}

	srv := service.New(service.Options{
		Cache: cache, Journal: journal,
		Workers: *workers, MaxSweepPoints: *maxPts,
		Logger: logger,
	})
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if *enablePprof {
		// Gated behind a flag: profiles expose internals and cost CPU, so
		// production deployments opt in explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}
	hs := &http.Server{Addr: *addr, Handler: mux}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests finish, cancel background jobs and drain their workers —
	// all within the -drain budget. A second signal aborts immediately
	// via the default disposition because stop() restores it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		stop()
		logger.Info("shutting down", slog.Duration("drain", *drain))
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Warn("http drain incomplete", slog.Any("err", err))
		}
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("job drain incomplete", slog.Any("err", err))
		}
	}()

	logger.Info("listening", slog.String("addr", *addr))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// drain (and the background sweep jobs) to actually finish.
	<-done
}
