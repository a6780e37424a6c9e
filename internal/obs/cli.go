// The batch CLIs' observability harness: one CLI value per binary owns
// the shared flags (-log, -cpuprofile, -memprofile, -debug-addr, and
// -trace/-timeline on the tracing binaries), decides which consumers exist
// in a run, and writes the run artifacts — profiles, manifest, timeline —
// on the way out, on success and on a fatal error alike.
package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// CLI is the lifecycle a batch binary runs under: NewCLI registers the
// flags, Start builds what they ask for, Finish writes the outputs, and
// Fail exits 1 with the outputs flushed.
type CLI struct {
	name    string
	tracing bool

	logSpec, cpuProfile, memProfile, debugAddr, tracePath, timelinePath string

	// Logger is the diagnostic stream (stderr; stdout stays the binary's
	// report). Nil until Start.
	Logger *slog.Logger
	// Tracer records the run's spans; nil when no consumer is on, which
	// makes every trace call a no-op.
	Tracer *Tracer
	// Timeline is the event ring behind -timeline and the debug endpoint's
	// view; nil when neither is on.
	Timeline *Timeline

	stdout, stderr io.Writer
	stopProf       func() error
	stopDebug      func()
}

// NewCLI registers the shared flags on fs for the binary called name.
// A tracing CLI also gets -trace and -timeline and builds a tracer named
// name; a non-tracing one has neither, and -debug-addr only turns on deep
// timing.
func NewCLI(fs *flag.FlagSet, name string, tracing bool) *CLI {
	c := &CLI{name: name, tracing: tracing, stdout: os.Stdout, stderr: os.Stderr}
	fs.StringVar(&c.logSpec, "log", "info:text", "diagnostic log level and format: level[:format], e.g. debug, warn:json")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve the live debug endpoint (pprof, /metrics, /progress) on this address, e.g. :6060")
	if tracing {
		fs.StringVar(&c.tracePath, "trace", "", `write a JSON run manifest to this path ("-" prints a summary)`)
		fs.StringVar(&c.timelinePath, "timeline", "", `write a Chrome trace-event timeline (Perfetto) to this path ("-" prints a per-track summary)`)
	}
	return c
}

// Start builds the logger, starts the profiles and the debug endpoint, and
// creates the consumers the flags ask for. Any consumer (-trace, -timeline,
// -debug-addr) turns on the deep-timing clock reads and, on a tracing CLI,
// the tracer that feeds them all; -timeline and -debug-addr also get a
// timeline. A bad -log spec prints the error and exits 2, like a bad flag;
// any other set-up failure exits through Fail.
func (c *CLI) Start() {
	opts, err := ParseLogFlag(c.logSpec)
	if err != nil {
		fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
		os.Exit(2)
	}
	c.Logger = NewLogger(c.stderr, opts)
	if err := c.start(); err != nil {
		c.Fail(err)
	}
}

func (c *CLI) start() error {
	stop, err := startProfiles(c.cpuProfile, c.memProfile)
	c.stopProf = stop
	if err != nil {
		return err
	}
	if c.debugAddr != "" {
		addr, stop, err := serveDebug(c.debugAddr)
		if err != nil {
			return err
		}
		c.stopDebug = stop
		c.Logger.LogAttrs(context.Background(), slog.LevelInfo, c.name+".debug.listen", slog.String("addr", addr))
	}
	observed := c.tracePath != "" || c.timelinePath != "" || c.debugAddr != ""
	SetDeepTiming(observed)
	if !c.tracing || !observed {
		return nil
	}
	if c.timelinePath != "" || c.debugAddr != "" {
		c.Timeline = NewTimeline(0)
	}
	c.Tracer = New(c.name)
	c.Tracer.SetTimeline(c.Timeline)
	return nil
}

// Finish writes the run's outputs (see flush) and stops the debug
// endpoint. A write failure exits through Fail.
func (c *CLI) Finish() {
	if err := c.flush(); err != nil {
		c.Fail(err)
	}
	if c.stopDebug != nil {
		c.stopDebug()
	}
}

// Fail writes what it can of the run's outputs (see flush), so a failing
// run keeps its profiles, manifest and timeline, with err in the
// manifest's error field; it logs err as <name>.fatal and exits 1. It is
// valid from Start on.
func (c *CLI) Fail(err error) {
	c.Tracer.fail(err)
	err = errors.Join(err, c.flush())
	c.Logger.LogAttrs(context.Background(), slog.LevelError, c.name+".fatal", slog.String("err", err.Error()))
	os.Exit(1)
}

// flush finishes the tracer, writes the manifest and the timeline the
// flags name, and stops the profiles. Each output is attempted at most
// once, so the Fail that follows a failed Finish write does not retry it;
// a failed write does not stop the others. It returns their errors joined.
func (c *CLI) flush() error {
	c.Tracer.Finish()
	var errs []error
	if path := c.tracePath; path != "" && c.Tracer != nil {
		c.tracePath = ""
		if err := WriteTrace(c.Tracer, path, c.stdout); err != nil {
			errs = append(errs, err)
		} else if path != "-" {
			fmt.Fprintf(c.stdout, "wrote run manifest to %s\n", path)
		}
	}
	if path := c.timelinePath; path != "" && c.Timeline != nil {
		c.timelinePath = ""
		if err := writeTimeline(c.Timeline, path, c.stdout); err != nil {
			errs = append(errs, err)
		} else if path != "-" {
			fmt.Fprintf(c.stdout, "wrote timeline to %s (load in ui.perfetto.dev)\n", path)
		}
	}
	return errors.Join(append(errs, c.stopProfiles())...)
}

// stopProfiles runs the profile stop function once; later calls are no-ops.
func (c *CLI) stopProfiles() error {
	stop := c.stopProf
	c.stopProf = nil
	if stop == nil {
		return nil
	}
	return stop()
}

// startProfiles begins the pprof captures: a CPU profile at cpuPath
// (started immediately) and a heap profile at memPath (written when the
// returned stop function runs). Either path may be empty. The stop
// function is never nil.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return func() error { return nil }, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return func() error { return nil }, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // fold transient garbage out of the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// WriteTrace emits the tracer the way the -trace flag specifies: path "-"
// prints the human-readable summary to w (top spans by cumulative time
// plus counters); any other path gets the JSON manifest, with parent
// directories created as needed (so -trace runs/x.json works on a fresh
// checkout).
func WriteTrace(t *Tracer, path string, w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteTrace on nil tracer")
	}
	if path == "-" {
		return t.WriteSummary(w)
	}
	return writeFile(path, t.WriteManifest)
}

// writeTimeline emits the timeline the way the -timeline flag specifies:
// path "-" prints the per-track summary to w; any other path gets Chrome
// trace-event JSON, with parent directories created as needed.
func writeTimeline(t *Timeline, path string, w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: writeTimeline on nil timeline")
	}
	if path == "-" {
		return t.WriteTimelineSummary(w)
	}
	return writeFile(path, t.WriteChromeTrace)
}

// writeFile creates path (and its parent directories) and fills it with
// write.
func writeFile(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
