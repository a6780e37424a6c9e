// Command hottilesd is the plan-serving daemon: it accepts MatrixMarket
// uploads over HTTP, runs the HotTiles preprocessing pipeline (scan →
// model → partition → format generation) once per distinct matrix+config,
// and serves the serialized plan from a content-addressed cache. The
// paper's train-once/infer-many workflow (§VI-B) as a service: the first
// upload pays for preprocessing, every identical upload — concurrent or
// later — gets the cached plan.
//
// Endpoints (one mux, one port):
//
//	POST /plan         MatrixMarket body → binary plan (X-Plan-Hash header)
//	POST /gnn          MatrixMarket body → multi-layer GNN inference, JSON
//	                   (?layers=N; reuses /plan's content-addressed cache)
//	GET  /plan/{hash}  fetch a cached plan by content hash (404 if absent)
//	GET  /healthz      liveness + store counters, JSON
//	GET  /metrics      obs registry, Prometheus text exposition
//	GET  /progress     running fan-out, JSON
//	GET  /debug/requests  flight recorder: recent requests + post-mortems
//	GET  /debug/pprof  standard Go profiling
//
// Distinct uploads build concurrently, one per core by default
// (-max-active 0): a single build has serial stages (hashing, HTTP, the
// serial parts of preprocessing, encode) that leave the other cores idle.
// Overload is refused, not buffered: past -max-active concurrent builds
// and a -max-queue wait line, POST /plan answers 429 with a Retry-After
// estimate. SIGINT/SIGTERM drains in-flight requests before exiting;
// SIGQUIT dumps the post-mortem ring to stderr and keeps serving.
//
// Built plans are kept in memory under the -cache-bytes budget, in two
// segments: a new plan enters a window of 1/8 of the budget and moves to
// the main LRU on its second request (a repeat POST /plan or /gnn, or a
// GET /plan/{hash}), so one-off uploads age out of the window without
// displacing the plans that are reused. A plan read back from -store-dir
// goes straight to main. The process holds about twice what main holds,
// because the garbage collector lets the heap grow to twice its live
// size: ~1.8× the budget once main is full (DESIGN.md §14).
//
// Every request carries one ID (inbound X-Request-ID / traceparent, minted
// otherwise) through the access log, the response header, the span tree,
// and /debug/requests — DESIGN.md §18. The daemon logs structured lines
// (JSON by default; -log level:format) so drain, 429, and signal events
// stay machine-parseable under load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hottiles "repro"
	"repro/internal/obs"
	"repro/internal/planstore"
)

// logger is the process logger; main replaces it once flags are parsed.
// Package scope so fail() stays usable from any point after startup.
var logger *slog.Logger

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
	archName := flag.String("arch", "spade-sextans:4",
		"architecture: spade-sextans[:scale], spade-sextans-pcie, piuma, cpu-dsa")
	strategy := flag.String("strategy", "hottiles", "hottiles|iunaware|hotonly|coldonly")
	kernelName := flag.String("kernel", "spmm", "kernel: spmm|spmv|sddmm")
	tileSize := flag.Int("tile", 0, "tile size override (0 = architecture default)")
	opsPerMAC := flag.Float64("ops", 2, "arithmetic-intensity factor (2 = plain SpMM)")
	seed := flag.Int64("seed", 1, "seed for IUnaware's random assignment")
	storeDir := flag.String("store-dir", "", "spill built plans to this directory (survives restarts)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20,
		"in-memory plan cache budget in bytes: 1/8 is the window new plans enter, the rest holds plans requested again")
	maxActive := flag.Int("max-active", 0, "concurrent preprocessing builds (0: one per core, GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 64, "builds waiting for a slot before 429 (negative: no queue)")
	reqTimeout := flag.Duration("request-timeout", 60*time.Second, "per-request preprocessing deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "shutdown drain deadline for in-flight requests")
	maxUpload := flag.Int64("max-upload-bytes", 256<<20, "largest accepted MatrixMarket upload")
	logSpec := flag.String("log", "info:json", "log level and format: level[:format], e.g. debug, warn:text")
	logRate := flag.Int("log-rate", 1000, "max sub-warn log lines per second (0 = unlimited)")
	slowThreshold := flag.Duration("slow-threshold", time.Second,
		"requests at or above this latency are captured in the post-mortem ring (negative: disable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hottilesd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	logOpts, err := obs.ParseLogFlag(*logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hottilesd:", err)
		os.Exit(2)
	}
	logOpts.SampleRate = *logRate
	logger = obs.NewLogger(os.Stderr, logOpts)
	obs.ConfigureFlight(*slowThreshold)

	cfg := config{
		archName:   *archName,
		stratName:  *strategy,
		kernelName: *kernelName,
		opsPerMAC:  *opsPerMAC,
		seed:       *seed,
		maxUpload:  *maxUpload,
		reqTimeout: *reqTimeout,
		log:        logger,
		store: planstore.Config{
			Dir:       *storeDir,
			MaxBytes:  *cacheBytes,
			MaxActive: *maxActive,
			MaxQueue:  *maxQueue,
		},
	}
	if cfg.arch, err = hottiles.ParseArch(*archName); err != nil {
		fail(err)
	}
	if *tileSize > 0 {
		cfg.arch.TileH, cfg.arch.TileW = *tileSize, *tileSize
	}
	if cfg.strategy, err = hottiles.ParseStrategy(*strategy); err != nil {
		fail(err)
	}
	if cfg.kernel, err = hottiles.ParseKernel(*kernelName); err != nil {
		fail(err)
	}

	s, err := newServer(cfg)
	if err != nil {
		fail(err)
	}
	// The daemon always has its debug plane attached, so keep the
	// hot-loop timing observations on: a /metrics scrape should see the
	// pipeline's histograms populated.
	obs.SetDeepTiming(true)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: s.mux}
	// The accept loop outlives any single fan-out and terminates with
	// the listener — like the debug endpoint obs.CLI starts for the batch
	// CLIs' -debug-addr, it cannot run on the bounded task pool, so
	// cmd/hottilesd is nakedgo-allowlisted.
	go srv.Serve(ln)
	logger.LogAttrs(context.Background(), slog.LevelInfo, "hottilesd.listen",
		slog.String("addr", ln.Addr().String()),
		slog.String("arch", cfg.archName),
		slog.String("strategy", cfg.stratName),
	)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for got := range sig {
		if got == syscall.SIGQUIT {
			// Post-mortem dump on demand; the daemon keeps serving.
			logger.LogAttrs(context.Background(), slog.LevelWarn, "hottilesd.postmortem.dump",
				slog.String("signal", got.String()))
			if err := obs.Flight().WritePostmortem(os.Stderr); err != nil {
				logger.LogAttrs(context.Background(), slog.LevelError, "hottilesd.postmortem.fail",
					slog.String("err", err.Error()))
			}
			continue
		}
		if err := drain(srv, logger, got.String(), *drainTimeout); err != nil {
			os.Exit(1)
		}
		return
	}
}

// drain runs the signal-initiated shutdown: it announces the drain, runs
// GracefulStop, and reports the outcome — all through the structured
// logger, so the shutdown lines interleave whole with in-flight request
// logs instead of racing them on stderr.
func drain(srv *http.Server, log *slog.Logger, cause string, timeout time.Duration) error {
	ctx := context.Background()
	log.LogAttrs(ctx, slog.LevelWarn, "hottilesd.drain.start",
		slog.String("cause", cause), slog.String("timeout", timeout.String()))
	if err := obs.GracefulStop(srv, timeout); err != nil {
		log.LogAttrs(ctx, slog.LevelError, "hottilesd.drain.fail", slog.String("err", err.Error()))
		return err
	}
	log.LogAttrs(ctx, slog.LevelInfo, "hottilesd.drain.done", slog.String("cause", cause))
	return nil
}

// fail logs a fatal startup error and exits. Before flag parsing installs
// the logger, fail falls back to plain stderr.
func fail(err error) {
	if logger == nil {
		fmt.Fprintln(os.Stderr, "hottilesd:", err)
		os.Exit(1)
	}
	logger.LogAttrs(context.Background(), slog.LevelError, "hottilesd.fatal", slog.String("err", err.Error()))
	os.Exit(1)
}
