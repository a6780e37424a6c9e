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
	cli := obs.NewCLI(flag.CommandLine, "spmmsim", true)
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
	cli.Start()
	par.SetWorkers(*workers)
	par.SetTimeline(cli.Timeline)
	e := experiments.NewEnv(*scale, *seed)
	e.SetTimeline(cli.Timeline)
	tr := cli.Tracer
	tr.SetConfig("scale", fmt.Sprint(*scale))
	tr.SetConfig("seed", fmt.Sprint(*seed))
	tr.SetConfig("par", fmt.Sprint(*workers))
	tr.SetConfig("experiments", strings.Join(studyNames(studies), ","))
	e.SetTracer(tr)

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
			cli.Logger.LogAttrs(ctx, slog.LevelError, "spmmsim.study.fail",
				slog.String("study", name), slog.String("err", err.Error()))
			cli.Fail(err)
		}
		tr.AddOutput(name, buf.Bytes())
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	cli.Finish()
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
