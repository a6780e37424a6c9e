// Command spmmsim regenerates the paper's evaluation artifacts: every
// figure and table of §VIII on the scaled synthetic benchmark suite.
//
// Usage:
//
//	spmmsim [-scale N] [-seed S] <experiment>... | all
//
// The experiments are the registry experiments.Studies, in its order.
// The -scale flag divides the paper's matrix sizes (DESIGN.md §2); 64 runs
// the full evaluation in minutes on a laptop.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
)

// studyWallHist records each experiment's end-to-end wall time.
var studyWallHist = obs.NewHistogram("spmmsim.study.wall.ns")

func main() {
	scale := flag.Int("scale", 64, "matrix scale divisor (paper sizes / scale)")
	seed := flag.Int64("seed", 1, "generator seed")
	workers := flag.Int("par", 0, "worker-pool size for the parallel engine (0 = GOMAXPROCS, 1 = serial)")
	tracePath := flag.String("trace", "", `write a JSON run manifest to this path ("-" prints a summary)`)
	timelinePath := flag.String("timeline", "", `write a Chrome trace-event timeline (Perfetto) to this path ("-" prints a per-track summary)`)
	debugAddr := flag.String("debug-addr", "", "serve the live debug endpoint (pprof, /metrics, /progress) on this address, e.g. :6060")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	logSpec := flag.String("log", "info:text", "diagnostic log level and format: level[:format], e.g. debug, warn:json")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	studies, err := experiments.Resolve(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmsim:", err)
		usage()
		os.Exit(2)
	}
	logOpts, err := obs.ParseLogFlag(*logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmsim:", err)
		os.Exit(2)
	}
	logger = obs.NewLogger(os.Stderr, logOpts)
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	if *debugAddr != "" {
		addr, stop, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		defer stop()
		logger.LogAttrs(context.Background(), slog.LevelInfo, "spmmsim.debug.listen", slog.String("addr", addr))
	}
	par.SetWorkers(*workers)
	e := experiments.NewEnv(*scale, *seed)

	// Any observability consumer turns on the deep-timing clock reads that
	// feed the per-tile, per-step, and cache-lookup histograms.
	obs.SetDeepTiming(*tracePath != "" || *timelinePath != "" || *debugAddr != "")

	var tl *obs.Timeline
	if *timelinePath != "" || *debugAddr != "" {
		tl = obs.NewTimeline(0)
		e.SetTimeline(tl)
		par.SetTimeline(tl)
	}

	// The tracer records the study and pipeline spans for every consumer:
	// the manifest reads its buffer, the timeline gets it flushed in at
	// Finish. A nil tracer keeps the default path free of observability
	// cost; every trace call below degrades to a nil check.
	var tr *obs.Tracer
	if *tracePath != "" || *timelinePath != "" || *debugAddr != "" {
		tr = obs.New("spmmsim")
		tr.SetTimeline(tl)
		tr.SetConfig("scale", fmt.Sprint(*scale))
		tr.SetConfig("seed", fmt.Sprint(*seed))
		tr.SetConfig("par", fmt.Sprint(*workers))
		tr.SetConfig("experiments", strings.Join(studyNames(studies), ","))
		e.SetTracer(tr)
	}

	// The process-root context: everything below the experiments facade
	// inherits it (the ctxflow analyzer keeps internal code from minting
	// its own).
	ctx := context.Background()

	for _, st := range studies {
		name := st.Name
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		// Render through a buffer so the manifest can hash exactly the bytes
		// the user saw for this experiment.
		var buf bytes.Buffer
		var w io.Writer = os.Stdout
		if tr != nil {
			w = io.MultiWriter(os.Stdout, &buf)
		}
		doneProgress := obs.StartProgress(name)
		sp := tr.Root().Start(name)
		res, err := st.Run(ctx, e)
		if err == nil {
			res.Render(w)
		}
		sp.End()
		doneProgress()
		studyWallHist.ObserveSince(start)
		if err != nil {
			logger.LogAttrs(context.Background(), slog.LevelError, "spmmsim.study.fail",
				slog.String("study", name), slog.String("err", err.Error()))
			os.Exit(1)
		}
		tr.AddOutput(name, buf.Bytes())
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	tr.Finish()
	if *tracePath != "" {
		if err := obs.WriteTrace(tr, *tracePath, os.Stdout); err != nil {
			fail(err)
		}
		if *tracePath != "-" {
			fmt.Printf("wrote run manifest to %s\n", *tracePath)
		}
	}
	if *timelinePath != "" {
		if err := obs.WriteTimeline(tl, *timelinePath, os.Stdout); err != nil {
			fail(err)
		}
		if *timelinePath != "-" {
			fmt.Printf("wrote timeline to %s (load in ui.perfetto.dev)\n", *timelinePath)
		}
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// logger is the CLI's diagnostic stream (stderr; stdout stays the study
// output). main replaces it once the -log flag is parsed.
var logger *slog.Logger

// fail logs a fatal error as a structured line and exits. Before flag
// parsing installs the logger, fall back to plain stderr.
func fail(err error) {
	if logger == nil {
		fmt.Fprintln(os.Stderr, "spmmsim:", err)
		os.Exit(1)
	}
	logger.LogAttrs(context.Background(), slog.LevelError, "spmmsim.fatal", slog.String("err", err.Error()))
	os.Exit(1)
}

// studyNames lists the names of studies, in order.
func studyNames(studies []experiments.Study) []string {
	names := make([]string, len(studies))
	for i, st := range studies {
		names[i] = st.Name
	}
	return names
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: spmmsim [-scale N] [-seed S] <experiment>...

experiments: %v
or "all" to run everything.
`, studyNames(experiments.Studies))
	flag.PrintDefaults()
}
